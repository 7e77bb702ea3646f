package logic

import (
	"math/rand"
	"strings"
	"testing"
)

// wideVars are the variables of a 130-variable space that the wide
// covers below use: they straddle both 64-bit word boundaries.
var wideVars = []int{0, 40, 62, 63, 64, 65, 100, 127, 128, 129}

const wideN = 130

// embed spreads a cube over len(wideVars) variables into the wide
// space, with Dash everywhere else.
func embed(c Cube) Cube {
	w := NewCube(wideN)
	for i, v := range c {
		w[wideVars[i]] = v
	}
	return w
}

func embedCover(f *Cover) *Cover {
	g := NewCover(wideN)
	for _, c := range f.Cubes {
		g.Add(embed(c))
	}
	return g
}

// project is embed's inverse; it fails the test if the cube has a
// literal outside wideVars.
func project(t *testing.T, c Cube) Cube {
	t.Helper()
	p := make(Cube, len(wideVars))
	for i, v := range wideVars {
		p[i] = c[v]
	}
	if embed(p).String() != c.String() {
		t.Fatalf("cube %s has a literal outside the projected variables", c)
	}
	return p
}

// TestWideCoversMatchProjection checks Covers, Tautology and Minimize on
// covers of 130 variables against the 10-variable truth tables of their
// projections, and checks that Minimize gives the same cubes as it does
// on the projection.
func TestWideCoversMatchProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	nv := len(wideVars)
	full := uint64(1) << uint(nv)
	for iter := 0; iter < 60; iter++ {
		f := randomCover(rng, nv, 1+rng.Intn(12))
		if iter%3 == 0 {
			// Make some of them tautologies: add the complement of a
			// variable the cover otherwise leaves out.
			v := rng.Intn(nv)
			f.Add(NewCube(nv))
			f.Cubes[len(f.Cubes)-1][v] = One
			g := NewCube(nv)
			g[v] = Zero
			f.Add(g)
		}
		wide := embedCover(f)

		brute := true
		for m := uint64(0); m < full; m++ {
			brute = brute && f.Eval(m)
		}
		if got := wide.Tautology(); got != brute {
			t.Fatalf("Tautology = %v, truth table says %v for\n%s", got, brute, f)
		}

		d := randomCover(rng, nv, 1).Cubes[0]
		covers := true
		for m := uint64(0); m < full; m++ {
			covers = covers && (!d.EvalBits(m) || f.Eval(m))
		}
		if got := wide.Covers(embed(d)); got != covers {
			t.Fatalf("Covers(%s) = %v, truth table says %v for\n%s", d, got, covers, f)
		}

		dc := randomCover(rng, nv, rng.Intn(3))
		got := Minimize(wide, embedCover(dc))
		narrow := Minimize(f, dc)
		proj := NewCover(nv)
		for _, c := range got.Cubes {
			proj.Add(project(t, c))
		}
		checkMinimized(t, f, dc, proj)
		if proj.String() != narrow.String() {
			t.Fatalf("wide Minimize differs from the projection's:\n%s\nvs\n%s", proj, narrow)
		}
		if !Equivalent(wide, got, embedCover(dc)) {
			t.Fatal("Equivalent rejects the wide minimized cover")
		}
	}
}

// checkMinimized fails unless got covers every minterm of on outside dc
// and no minterm outside both, by truth table.
func checkMinimized(t testing.TB, on, dc, got *Cover) {
	t.Helper()
	for m := uint64(0); m < 1<<uint(on.NumVars); m++ {
		inOn, inDC, inGot := on.Eval(m), dc.Eval(m), got.Eval(m)
		if inOn && !inDC && !inGot {
			t.Fatalf("ON minterm %0*b dropped:\non\n%s\ndc\n%s\ngot\n%s", on.NumVars, m, on, dc, got)
		}
		if !inOn && !inDC && inGot {
			t.Fatalf("OFF minterm %0*b covered:\non\n%s\ndc\n%s\ngot\n%s", on.NumVars, m, on, dc, got)
		}
	}
}

// FuzzMinimize decodes ON and DC covers of up to 10 variables and checks
// Minimize against their truth table: the result keeps every ON minterm
// outside DC, takes no OFF minterm, and never has more cubes than the
// ON-set after single-cube containment.
func FuzzMinimize(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 0, 0, 1, 1, 0, 1, 0, 1, 2, 2})
	f.Add([]byte{5, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 1})
	f.Add([]byte{10, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%10
		on, dc := NewCover(n), NewCover(n)
		// Each cube is a selector byte (odd: DC) and n value bytes.
		for rest := data[1:]; len(rest) > n && len(on.Cubes)+len(dc.Cubes) < 24; rest = rest[n+1:] {
			c := make(Cube, n)
			for i := range c {
				c[i] = Value(rest[1+i] % 3)
			}
			if rest[0]&1 == 1 {
				dc.Add(c)
			} else {
				on.Add(c)
			}
		}
		got := Minimize(on, dc)
		checkMinimized(t, on, dc, got)
		scc := &Cover{NumVars: n, Cubes: append([]Cube(nil), on.Cubes...)}
		scc.SingleCubeContain()
		if len(got.Cubes) > len(scc.Cubes) {
			t.Fatalf("%d cubes from an ON-set of %d after containment", len(got.Cubes), len(scc.Cubes))
		}
	})
}

// TestEvalRefusesWideAssignments pins the explicit refusal of more than
// 64 variables: a uint64 assignment cannot hold variable 64.
func TestEvalRefusesWideAssignments(t *testing.T) {
	if !NewCube(64).EvalBits(0) {
		t.Error("a 64-variable universe cube must accept any assignment")
	}
	wide := NewCube(65)
	wide[64] = One
	for name, eval := range map[string]func(){
		"EvalBits": func() { wide.EvalBits(0) },
		"Eval":     func() { (&Cover{NumVars: 65, Cubes: []Cube{wide}}).Eval(0) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "65 variables") || !strings.Contains(msg, "at most 64") {
					t.Errorf("%s on 65 variables: panic %q, want one naming the 64-variable limit", name, msg)
				}
			}()
			eval()
		}()
	}
}
