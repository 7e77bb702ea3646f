package logic

import (
	"math/rand"
	"testing"
)

func randomCover(rng *rand.Rand, nvars, ncubes int) *Cover {
	f := NewCover(nvars)
	for i := 0; i < ncubes; i++ {
		c := NewCube(nvars)
		for j := 0; j < nvars; j++ {
			c[j] = Value(rng.Intn(3))
		}
		f.Cubes = append(f.Cubes, c)
	}
	return f
}

func bruteEqual(f, g *Cover) bool {
	n := f.NumVars
	for m := uint64(0); m < 1<<uint(n); m++ {
		if f.Eval(m) != g.Eval(m) {
			return false
		}
	}
	return true
}

func TestTautologyBasics(t *testing.T) {
	if !Universe(4).Tautology() {
		t.Error("universe must be a tautology")
	}
	if NewCover(4).Tautology() {
		t.Error("empty cover must not be a tautology")
	}
	f := MustParseCover(2, "1- 0-")
	if !f.Tautology() {
		t.Error("x + x' must be a tautology")
	}
	g := MustParseCover(2, "1- 00")
	if g.Tautology() {
		t.Error("x + x'y' is not a tautology")
	}
}

func TestTautologyMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		f := randomCover(rng, 5, 1+rng.Intn(8))
		brute := true
		for m := uint64(0); m < 32; m++ {
			if !f.Eval(m) {
				brute = false
				break
			}
		}
		if got := f.Tautology(); got != brute {
			t.Fatalf("Tautology mismatch on\n%s\ngot %v want %v", f, got, brute)
		}
	}
}

func TestCoversCube(t *testing.T) {
	f := MustParseCover(3, "1-- -1-")
	if !f.Covers(MustParseCube("11-")) {
		t.Error("f should cover 11-")
	}
	if f.Covers(MustParseCube("00-")) {
		t.Error("f should not cover 00-")
	}
	// Covering that needs the union of two cubes.
	g := MustParseCover(2, "1- 01")
	if !g.Covers(MustParseCube("-1")) {
		t.Error("g should cover -1 via union")
	}
}

func TestSingleCubeContain(t *testing.T) {
	f := MustParseCover(3, "1-- 10- 101 0-0")
	f.SingleCubeContain()
	if len(f.Cubes) != 2 {
		t.Errorf("expected 2 cubes after containment, got %d:\n%s", len(f.Cubes), f)
	}
}
