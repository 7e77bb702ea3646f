package bdd

import (
	"math/rand"
	"testing"
)

func TestTerminalsAndVars(t *testing.T) {
	m := New(3)
	x := m.Var(0)
	if m.Eval(x, []bool{true, false, false}) != true {
		t.Error("Var(0) must evaluate to its assignment")
	}
	if m.Eval(m.NVar(0), []bool{true, false, false}) != false {
		t.Error("NVar(0) must be the complement")
	}
	if m.Var(0) != x {
		t.Error("hash consing must return the identical ref")
	}
}

func TestVarOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(2).Var(5)
}

// randomRef builds a random BDD by combining variables.
func randomRef(m *Manager, rng *rand.Rand, ops int) Ref {
	r := m.Var(rng.Intn(m.NumVars()))
	for i := 0; i < ops; i++ {
		s := m.Var(rng.Intn(m.NumVars()))
		switch rng.Intn(4) {
		case 0:
			r = m.And(r, s)
		case 1:
			r = m.Or(r, s)
		case 2:
			r = m.Xor(r, s)
		case 3:
			r = m.Not(r)
		}
	}
	return r
}

func assigns(n int) [][]bool {
	out := make([][]bool, 1<<uint(n))
	for i := range out {
		a := make([]bool, n)
		for j := 0; j < n; j++ {
			a[j] = (i>>uint(j))&1 == 1
		}
		out[i] = a
	}
	return out
}

func TestOpsAgainstBruteForce(t *testing.T) {
	const n = 5
	rng := rand.New(rand.NewSource(9))
	m := New(n)
	for trial := 0; trial < 100; trial++ {
		f := randomRef(m, rng, 6)
		g := randomRef(m, rng, 6)
		and, or, xor, not := m.And(f, g), m.Or(f, g), m.Xor(f, g), m.Not(f)
		for _, a := range assigns(n) {
			fv, gv := m.Eval(f, a), m.Eval(g, a)
			if m.Eval(and, a) != (fv && gv) {
				t.Fatal("And broken")
			}
			if m.Eval(or, a) != (fv || gv) {
				t.Fatal("Or broken")
			}
			if m.Eval(xor, a) != (fv != gv) {
				t.Fatal("Xor broken")
			}
			if m.Eval(not, a) != !fv {
				t.Fatal("Not broken")
			}
		}
	}
}

func TestCanonicity(t *testing.T) {
	// Structurally different constructions of the same function must
	// yield the same ref — the ROBDD canonicity property.
	m := New(4)
	a, b := m.Var(0), m.Var(1)
	deMorgan1 := m.Not(m.And(a, b))
	deMorgan2 := m.Or(m.Not(a), m.Not(b))
	if deMorgan1 != deMorgan2 {
		t.Error("De Morgan forms must be canonical")
	}
	if m.Xor(a, a) != False {
		t.Error("x^x must be False")
	}
	if m.Or(a, m.Not(a)) != True {
		t.Error("x+!x must be True")
	}
}

func TestRestrict(t *testing.T) {
	m := New(3)
	f := m.And(m.Var(0), m.Or(m.Var(1), m.Var(2)))
	r1 := m.Restrict(f, 0, true)
	want := m.Or(m.Var(1), m.Var(2))
	if r1 != want {
		t.Error("Restrict(x0=1) wrong")
	}
	if m.Restrict(f, 0, false) != False {
		t.Error("Restrict(x0=0) must be False")
	}
}

func TestSatCount(t *testing.T) {
	m := New(4)
	if got := m.SatCount(True, 4); got != 16 {
		t.Errorf("SatCount(True) = %v, want 16", got)
	}
	if got := m.SatCount(False, 4); got != 0 {
		t.Errorf("SatCount(False) = %v, want 0", got)
	}
	f := m.And(m.Var(0), m.Var(1))
	if got := m.SatCount(f, 4); got != 4 {
		t.Errorf("SatCount(x0&x1) = %v, want 4", got)
	}
}

func TestSatCountMatchesBrute(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(31))
	m := New(n)
	for trial := 0; trial < 60; trial++ {
		f := randomRef(m, rng, 10)
		var brute float64
		for _, a := range assigns(n) {
			if m.Eval(f, a) {
				brute++
			}
		}
		if got := m.SatCount(f, n); got != brute {
			t.Fatalf("SatCount = %v, brute = %v", got, brute)
		}
	}
}

func TestAnySat(t *testing.T) {
	m := New(4)
	f := m.And(m.Var(1), m.Not(m.Var(3)))
	a, ok := m.AnySat(f, 4)
	if !ok {
		t.Fatal("satisfiable function reported unsat")
	}
	if !m.Eval(f, a) {
		t.Errorf("AnySat assignment %v does not satisfy f", a)
	}
	if _, ok := m.AnySat(False, 4); ok {
		t.Error("False must be unsat")
	}
	if a, ok := m.AnySat(True, 4); !ok || len(a) != 4 {
		t.Error("True must be satisfiable")
	}
}

func TestAnySatRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := New(6)
	for i := 0; i < 80; i++ {
		f := randomRef(m, rng, 9)
		a, ok := m.AnySat(f, 6)
		if ok != (f != False) {
			t.Fatalf("AnySat ok=%v for f==False:%v", ok, f == False)
		}
		if ok && !m.Eval(f, a) {
			t.Fatal("assignment does not satisfy")
		}
	}
}
