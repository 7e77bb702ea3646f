// Package bdd is a from-scratch reduced ordered binary decision diagram
// (ROBDD) engine: hash-consed nodes, ITE-based Boolean operations,
// cofactor restriction, and satisfying-assignment counting and
// extraction. Existential quantification lives in reach's image
// operator, which splits on next-state outputs instead. It is the substrate under the symbolic
// reachability analysis that computes the paper's "density of encoding"
// (valid states / total states) for both original and retimed circuits.
package bdd

import "fmt"

// Ref is a node reference. The constants False and True are the
// terminal nodes; all other refs index internal nodes.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level  int32 // variable index; terminals use a sentinel max level
	lo, hi Ref
}

const terminalLevel = int32(1<<30 - 1)

// Manager owns the node table and operation caches for one variable
// ordering. Variable i is at level i; lower levels are nearer the root.
type Manager struct {
	numVars int
	nodes   []node
	unique  map[node]Ref
	iteMemo map[[3]Ref]Ref
}

// New creates a manager for n variables.
func New(n int) *Manager {
	m := &Manager{
		numVars: n,
		nodes: []node{
			{level: terminalLevel}, // False
			{level: terminalLevel}, // True
		},
		unique:  map[node]Ref{},
		iteMemo: map[[3]Ref]Ref{},
	}
	return m
}

// NumVars returns the number of variables in the ordering.
func (m *Manager) NumVars() int { return m.numVars }

// Size returns the number of nodes ever allocated (including
// terminals). Nodes are never reclaimed, so Size only grows: bounds on
// it limit allocation history, not the live diagram.
func (m *Manager) Size() int { return len(m.nodes) }

// mk returns the canonical node (level, lo, hi), applying the reduction
// rules.
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	key := node{level: level, lo: lo, hi: hi}
	if r, ok := m.unique[key]; ok {
		return r
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, key)
	m.unique[key] = r
	return r
}

// Var returns the BDD of variable i.
func (m *Manager) Var(i int) Ref {
	if i < 0 || i >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, m.numVars))
	}
	return m.mk(int32(i), False, True)
}

// NVar returns the BDD of the complement of variable i.
func (m *Manager) NVar(i int) Ref {
	if i < 0 || i >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, m.numVars))
	}
	return m.mk(int32(i), True, False)
}

func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

// cofactors returns the lo/hi cofactors of r with respect to level.
func (m *Manager) cofactors(r Ref, level int32) (lo, hi Ref) {
	n := m.nodes[r]
	if n.level == level {
		return n.lo, n.hi
	}
	return r, r
}

// ITE computes if-then-else(f, g, h) — the universal binary operation.
func (m *Manager) ITE(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	key := [3]Ref{f, g, h}
	if r, ok := m.iteMemo[key]; ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	lo := m.ITE(f0, g0, h0)
	hi := m.ITE(f1, g1, h1)
	r := m.mk(top, lo, hi)
	m.iteMemo[key] = r
	return r
}

// Not returns the complement of f.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, False, True) }

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.ITE(f, g, False) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.ITE(f, True, g) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

// Restrict substitutes a constant for variable v in f.
func (m *Manager) Restrict(f Ref, v int, value bool) Ref {
	memo := map[Ref]Ref{}
	level := int32(v)
	var rec func(Ref) Ref
	rec = func(r Ref) Ref {
		n := m.nodes[r]
		if n.level > level {
			return r // below the variable (or terminal): unchanged
		}
		if got, ok := memo[r]; ok {
			return got
		}
		var out Ref
		if n.level == level {
			if value {
				out = n.hi
			} else {
				out = n.lo
			}
		} else {
			out = m.mk(n.level, rec(n.lo), rec(n.hi))
		}
		memo[r] = out
		return out
	}
	return rec(f)
}

// SatCount returns the number of satisfying assignments of f over the
// first nVars variables (f must not mention any variable ≥ nVars).
func (m *Manager) SatCount(f Ref, nVars int) float64 {
	memo := map[Ref]float64{}
	var rec func(r Ref, fromLevel int32) float64
	rec = func(r Ref, fromLevel int32) float64 {
		n := m.nodes[r]
		lvl := n.level
		if lvl > int32(nVars) {
			lvl = int32(nVars)
		}
		var base float64
		if r == False {
			base = 0
		} else if r == True {
			base = 1
		} else {
			if got, ok := memo[r]; ok {
				base = got
			} else {
				// Assignments with this variable at 0 plus at 1, each
				// counted over the variables below it.
				base = rec(n.lo, lvl+1) + rec(n.hi, lvl+1)
				memo[r] = base
			}
		}
		// Scale for the variables skipped between fromLevel and lvl.
		return base * pow2(int(lvl)-int(fromLevel))
	}
	return rec(f, 0)
}

func pow2(n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= 2
	}
	return out
}

// Eval evaluates f under a complete assignment (assign[i] is the value
// of variable i).
func (m *Manager) Eval(f Ref, assign []bool) bool {
	r := f
	for m.nodes[r].level != terminalLevel {
		n := m.nodes[r]
		if assign[n.level] {
			r = n.hi
		} else {
			r = n.lo
		}
	}
	return r == True
}

// AnySat returns one satisfying assignment of f over the first nVars
// variables (variables absent from f are set to false), or ok=false
// when f is unsatisfiable.
func (m *Manager) AnySat(f Ref, nVars int) (assign []bool, ok bool) {
	if f == False {
		return nil, false
	}
	assign = make([]bool, nVars)
	r := f
	for r != True {
		n := m.nodes[r]
		if n.lo != False {
			r = n.lo
		} else {
			assign[n.level] = true
			r = n.hi
		}
	}
	return assign, true
}
