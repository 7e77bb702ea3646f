package logic

import "strings"

// Cover is a sum of product terms over a fixed number of variables.
type Cover struct {
	NumVars int
	Cubes   []Cube
}

// NewCover returns an empty cover (the constant-0 function) over n vars.
func NewCover(n int) *Cover { return &Cover{NumVars: n} }

// Universe returns the constant-1 cover over n variables.
func Universe(n int) *Cover {
	return &Cover{NumVars: n, Cubes: []Cube{NewCube(n)}}
}

// ParseCover parses newline- or space-separated PLA-style cube strings.
func ParseCover(n int, s string) (*Cover, error) {
	c := NewCover(n)
	for _, f := range strings.Fields(s) {
		cube, err := ParseCube(f)
		if err != nil {
			return nil, err
		}
		c.Cubes = append(c.Cubes, cube)
	}
	return c, nil
}

// MustParseCover is ParseCover that panics on error.
func MustParseCover(n int, s string) *Cover {
	c, err := ParseCover(n, s)
	if err != nil {
		panic(err)
	}
	return c
}

// String renders one cube per line in PLA notation.
func (f *Cover) String() string {
	lines := make([]string, len(f.Cubes))
	for i, c := range f.Cubes {
		lines[i] = c.String()
	}
	return strings.Join(lines, "\n")
}

// Add appends a cube to the cover.
func (f *Cover) Add(c Cube) { f.Cubes = append(f.Cubes, c) }

// IsEmpty reports whether the cover has no cubes (constant 0).
func (f *Cover) IsEmpty() bool { return len(f.Cubes) == 0 }

// Literals returns the total literal count across all cubes.
func (f *Cover) Literals() int {
	n := 0
	for _, c := range f.Cubes {
		n += c.Literals()
	}
	return n
}

// Eval evaluates the cover on a complete assignment bit vector (bit i
// = variable i). Like EvalBits it panics on cubes of more than 64
// variables, which a uint64 cannot assign.
func (f *Cover) Eval(assign uint64) bool {
	for _, c := range f.Cubes {
		if c.EvalBits(assign) {
			return true
		}
	}
	return false
}

// Covers reports whether the cover contains cube d entirely, i.e. the
// cofactor of the cover with respect to d is a tautology.
func (f *Cover) Covers(d Cube) bool {
	k := newKernel(f.NumVars)
	return k.covered(k.pack(nil, []Cube{d}), k.pack(nil, f.Cubes), -1, nil, nil)
}

// Tautology reports whether the cover is the constant-1 function.
func (f *Cover) Tautology() bool { return f.Covers(NewCube(f.NumVars)) }

// SingleCubeContain removes cubes contained in another single cube of
// the cover (cheap redundancy removal) and orders the rest widest
// first.
func (f *Cover) SingleCubeContain() {
	k := newKernel(f.NumVars)
	f.Cubes = k.unpack(k.singleCubeContain(k.pack(nil, f.Cubes)))
}
