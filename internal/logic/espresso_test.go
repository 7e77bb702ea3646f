package logic

import (
	"math/rand"
	"testing"
)

// onOffPreserved checks the minimization contract: result covers all ON
// minterms and no OFF minterms (DC minterms may go either way).
func onOffPreserved(t *testing.T, on, dc, got *Cover) {
	t.Helper()
	n := on.NumVars
	for m := uint64(0); m < 1<<uint(n); m++ {
		inOn := on.Eval(m)
		inDC := dc != nil && dc.Eval(m)
		inGot := got.Eval(m)
		if inOn && !inGot {
			t.Fatalf("minterm %0*b in ON-set dropped", n, m)
		}
		if !inOn && !inDC && inGot {
			t.Fatalf("minterm %0*b in OFF-set covered", n, m)
		}
	}
}

func TestMinimizeClassic(t *testing.T) {
	// f = a'b + ab + ab' should minimize to a + b.
	on := MustParseCover(2, "01 11 10")
	got := Minimize(on, nil)
	onOffPreserved(t, on, nil, got)
	if len(got.Cubes) != 2 {
		t.Errorf("expected 2 cubes (a + b), got %d:\n%s", len(got.Cubes), got)
	}
	if got.Literals() != 2 {
		t.Errorf("expected 2 literals, got %d", got.Literals())
	}
}

func TestMinimizeWithDontCares(t *testing.T) {
	// ON = {000}, DC = everything with var0 = 0 except 000's complement
	// structure: the DC set lets the single minterm expand.
	on := MustParseCover(3, "000")
	dc := MustParseCover(3, "0-1 01-")
	got := Minimize(on, dc)
	onOffPreserved(t, on, dc, got)
	if len(got.Cubes) != 1 || got.Cubes[0].Literals() != 1 {
		t.Errorf("DC expansion failed, got:\n%s", got)
	}
}

func TestMinimizeEmptyAndUniverse(t *testing.T) {
	if got := Minimize(NewCover(3), nil); !got.IsEmpty() {
		t.Error("empty ON-set must minimize to empty cover")
	}
	got := Minimize(Universe(3), nil)
	if len(got.Cubes) != 1 || !got.Cubes[0].IsUniverse() {
		t.Errorf("universe must stay a single universe cube, got:\n%s", got)
	}
}

func TestMinimizeRandomFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 150; iter++ {
		nvars := 3 + rng.Intn(3)
		on := randomCover(rng, nvars, 1+rng.Intn(8))
		var dc *Cover
		if rng.Intn(2) == 1 {
			dc = randomCover(rng, nvars, rng.Intn(3))
			// DC must not overlap ON for a well-posed spec; carve it out
			// by intersecting with the OFF-set's minterms.
			carved := NewCover(nvars)
			offOn := NewCover(nvars)
			for m := uint64(0); m < 1<<uint(nvars); m++ {
				if !on.Eval(m) {
					offOn.Add(mintermCube(nvars, m))
				}
			}
			for _, c := range dc.Cubes {
				for _, o := range offOn.Cubes {
					if p, ok := c.Intersect(o); ok {
						carved.Cubes = append(carved.Cubes, p)
					}
				}
			}
			dc = carved
		}
		got := Minimize(on, dc)
		onOffPreserved(t, on, dc, got)
		if got.Literals() > on.Literals()+nvars {
			t.Errorf("minimized cover much larger than input: %d vs %d", got.Literals(), on.Literals())
		}
	}
}

func TestMinimizeNeverGrowsCubeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 100; iter++ {
		on := randomCover(rng, 5, 2+rng.Intn(10))
		before := len(on.Cubes)
		got := Minimize(on, nil)
		if len(got.Cubes) > before {
			t.Fatalf("cube count grew: %d -> %d", before, len(got.Cubes))
		}
	}
}

func TestEquivalent(t *testing.T) {
	f := MustParseCover(2, "01 11 10")
	g := MustParseCover(2, "1- -1")
	if !Equivalent(f, g, nil) {
		t.Error("a'b+ab+ab' must equal a+b")
	}
	h := MustParseCover(2, "1-")
	if Equivalent(f, h, nil) {
		t.Error("a+b must differ from a")
	}
	// With DC covering the difference they become equivalent.
	dc := MustParseCover(2, "01")
	if !Equivalent(f, h, dc) {
		t.Error("a+b ~ a modulo dc=a'b")
	}
}

// mintermCube is the cube of the single assignment m over n variables.
func mintermCube(n int, m uint64) Cube {
	c := make(Cube, n)
	for i := range c {
		c[i] = Value(m >> uint(i) & 1)
	}
	return c
}
