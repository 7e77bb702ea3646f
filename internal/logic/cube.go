// Package logic provides two-level Boolean function manipulation:
// cubes, covers, containment and tautology checking, and an
// espresso-style EXPAND/IRREDUNDANT/REDUCE minimizer with don't-care
// support, all running on a bit-packed positional-cube kernel. It is
// the substrate under the FSM-to-netlist synthesis flow (the analog of
// SIS two-level minimization in the reproduced paper).
package logic

import (
	"fmt"
	"strings"
)

// Value is the value of one variable position inside a cube.
type Value byte

// Cube variable values. Dash means the variable is absent from the
// product term (don't care / both phases).
const (
	Zero Value = iota
	One
	Dash
)

// String returns "0", "1" or "-".
func (v Value) String() string {
	switch v {
	case Zero:
		return "0"
	case One:
		return "1"
	default:
		return "-"
	}
}

// Cube is a product term over n variables; position i holds the literal
// of variable i (Zero = complemented, One = positive, Dash = absent).
type Cube []Value

// NewCube returns a full-dash (universe) cube over n variables.
func NewCube(n int) Cube {
	c := make(Cube, n)
	for i := range c {
		c[i] = Dash
	}
	return c
}

// ParseCube parses a string such as "01-1" into a cube.
func ParseCube(s string) (Cube, error) {
	c := make(Cube, len(s))
	for i, r := range s {
		switch r {
		case '0':
			c[i] = Zero
		case '1':
			c[i] = One
		case '-', '2', 'x', 'X':
			c[i] = Dash
		default:
			return nil, fmt.Errorf("logic: invalid cube character %q in %q", r, s)
		}
	}
	return c, nil
}

// MustParseCube is ParseCube that panics on malformed input; intended
// for tests and embedded tables.
func MustParseCube(s string) Cube {
	c, err := ParseCube(s)
	if err != nil {
		panic(err)
	}
	return c
}

// String renders the cube in PLA notation ("01-1").
func (c Cube) String() string {
	var b strings.Builder
	for _, v := range c {
		b.WriteString(v.String())
	}
	return b.String()
}

// Clone returns an independent copy of the cube.
func (c Cube) Clone() Cube {
	d := make(Cube, len(c))
	copy(d, c)
	return d
}

// Literals counts the non-dash positions of the cube.
func (c Cube) Literals() int {
	n := 0
	for _, v := range c {
		if v != Dash {
			n++
		}
	}
	return n
}

// IsUniverse reports whether every position is Dash.
func (c Cube) IsUniverse() bool {
	for _, v := range c {
		if v != Dash {
			return false
		}
	}
	return true
}

// Contains reports whether c covers d (every minterm of d is in c).
func (c Cube) Contains(d Cube) bool {
	for i, v := range c {
		if v != Dash && v != d[i] {
			return false
		}
	}
	return true
}

// Equal reports positional equality of two cubes.
func (c Cube) Equal(d Cube) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// Distance returns the number of variables in which c and d have
// opposing literals. Distance 0 means the cubes intersect.
func (c Cube) Distance(d Cube) int {
	n := 0
	for i, v := range c {
		if v != Dash && d[i] != Dash && v != d[i] {
			n++
		}
	}
	return n
}

// Intersects reports whether the two cubes share at least one minterm.
func (c Cube) Intersects(d Cube) bool { return c.Distance(d) == 0 }

// Intersect returns the product c·d and whether it is non-empty.
func (c Cube) Intersect(d Cube) (Cube, bool) {
	out := make(Cube, len(c))
	for i, v := range c {
		switch {
		case v == Dash:
			out[i] = d[i]
		case d[i] == Dash || d[i] == v:
			out[i] = v
		default:
			return nil, false
		}
	}
	return out, true
}

// Supercube grows c to the smallest cube containing both c and d.
func (c Cube) Supercube(d Cube) Cube {
	out := make(Cube, len(c))
	for i, v := range c {
		if v == d[i] {
			out[i] = v
		} else {
			out[i] = Dash
		}
	}
	return out
}

// Cofactor returns the cofactor of c with respect to variable i taking
// value v (v must be Zero or One). The second result is false when the
// cofactor is empty (c demands the opposite phase).
func (c Cube) Cofactor(i int, v Value) (Cube, bool) {
	switch c[i] {
	case Dash, v:
		out := c.Clone()
		out[i] = Dash
		return out, true
	default:
		return nil, false
	}
}

// EvalBits evaluates the cube on a complete assignment given as a bit
// vector (bit i of input = variable i). It panics on cubes of more than
// 64 variables, which a uint64 cannot assign.
func (c Cube) EvalBits(assign uint64) bool {
	if len(c) > 64 {
		panic(fmt.Sprintf("logic: EvalBits on a cube of %d variables; a uint64 assignment holds at most 64", len(c)))
	}
	for i, v := range c {
		if v == Dash {
			continue
		}
		bit := (assign >> uint(i)) & 1
		if (v == One) != (bit == 1) {
			return false
		}
	}
	return true
}

// CountMinterms returns the number of minterms of the cube over its n
// variables (2^#dashes). It panics if the cube has more than 63 dashes.
func (c Cube) CountMinterms() uint64 {
	dashes := len(c) - c.Literals()
	if dashes > 63 {
		panic("logic: cube too wide for minterm counting")
	}
	return 1 << uint(dashes)
}
