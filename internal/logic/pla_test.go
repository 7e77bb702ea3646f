package logic

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"
)

const samplePLA = `# adder carry
.i 3
.o 2
.p 4
11- 10
1-1 10
-11 10
111 01
.e
`

func TestReadPLA(t *testing.T) {
	p, err := ReadPLA(strings.NewReader(samplePLA))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumInputs != 3 || p.NumOutputs != 2 || len(p.Rows) != 4 {
		t.Fatalf("shape: %+v", p)
	}
	on0 := p.OnSet(0)
	if len(on0.Cubes) != 3 {
		t.Errorf("output 0 ON-set has %d cubes, want 3", len(on0.Cubes))
	}
	on1 := p.OnSet(1)
	if len(on1.Cubes) != 1 {
		t.Errorf("output 1 ON-set has %d cubes, want 1", len(on1.Cubes))
	}
}

func TestPLARoundTrip(t *testing.T) {
	p, err := ReadPLA(strings.NewReader(samplePLA))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePLA(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPLA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumInputs != p.NumInputs || back.NumOutputs != p.NumOutputs || len(back.Rows) != len(p.Rows) {
		t.Fatal("round trip changed shape")
	}
	for i := range p.Rows {
		if !p.Rows[i].Input.Equal(back.Rows[i].Input) || !p.Rows[i].Output.Equal(back.Rows[i].Output) {
			t.Fatalf("row %d changed", i)
		}
	}
}

func TestReadPLAErrors(t *testing.T) {
	cases := []string{
		"11- 10",            // cube before headers
		".i 2\n.o 1\n11- 1", // wrong input width
		".i 3\n.o 2\n11- 1", // wrong output width
		".i 3\n.o 1\n11z 1", // bad input char
		".i 3\n.o 1\n11- x", // bad output char
		".i x\n.o 1\n",      // bad header
	}
	for _, s := range cases {
		if _, err := ReadPLA(strings.NewReader(s)); err == nil {
			t.Errorf("expected error for %q", s)
		}
	}
}

func TestReadPLADontCareOutputs(t *testing.T) {
	src := ".i 2\n.o 1\n11 1\n00 -\n.e\n"
	p, err := ReadPLA(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	dc := p.DCSet(0)
	if len(dc.Cubes) != 1 || dc.Cubes[0].String() != "00" {
		t.Errorf("DC set wrong: %v", dc)
	}
}

func TestMinimizePLA(t *testing.T) {
	// f0 = minterms of a + b over 2 vars, expressed redundantly.
	src := ".i 2\n.o 1\n01 1\n10 1\n11 1\n.e\n"
	p, err := ReadPLA(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	min := MinimizePLA(p)
	if len(min.Rows) != 2 {
		t.Errorf("minimized to %d rows, want 2 (a + b)", len(min.Rows))
	}
	// Function preserved.
	want := p.OnSet(0)
	got := min.OnSet(0)
	if !Equivalent(want, got, nil) {
		t.Error("minimization changed the function")
	}
}

func TestMinimizePLAWithDC(t *testing.T) {
	// Single ON minterm, DC covering a neighbour: one literal suffices.
	src := ".i 2\n.o 1\n11 1\n10 -\n.e\n"
	p, err := ReadPLA(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	min := MinimizePLA(p)
	if len(min.Rows) != 1 || min.Rows[0].Input.Literals() != 1 {
		t.Errorf("DC not exploited: %v", min.Rows)
	}
}

// randomPLA returns a seeded PLA whose input literals are mostly
// dashes (dashProb in percent) and whose outputs mix ON, OFF and DC.
func randomPLA(seed int64, inputs, outputs, rows, dashProb int) *PLA {
	rng := rand.New(rand.NewSource(seed))
	p := &PLA{NumInputs: inputs, NumOutputs: outputs}
	for r := 0; r < rows; r++ {
		in := NewCube(inputs)
		for i := range in {
			if rng.Intn(100) >= dashProb {
				in[i] = Value(rng.Intn(2))
			}
		}
		out := make(Cube, outputs)
		for j := range out {
			out[j] = [...]Value{One, One, Zero, Dash}[rng.Intn(4)]
		}
		p.Rows = append(p.Rows, PLARow{Input: in, Output: out})
	}
	return p
}

// TestMinimizePLAGolden pins the SHA-256 of MinimizePLA's output, as
// WritePLA prints it, on the PLAs above and on seeded random ones,
// three of them wider than one 64-bit word. The table was recorded from
// the list-of-values minimizer.
func TestMinimizePLAGolden(t *testing.T) {
	plas := map[string]*PLA{
		"r8x4":  randomPLA(1, 8, 4, 40, 40),
		"r12x3": randomPLA(2, 12, 3, 60, 50),
		"r66":   randomPLA(7, 66, 3, 14, 92),
		"r70":   randomPLA(3, 70, 2, 14, 93),
		"r130":  randomPLA(6, 130, 2, 14, 96),
	}
	for name, src := range map[string]string{
		"sample": samplePLA,
		"aorb":   ".i 2\n.o 1\n01 1\n10 1\n11 1\n.e\n",
		"dc":     ".i 2\n.o 1\n11 1\n10 -\n.e\n",
	} {
		p, err := ReadPLA(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		plas[name] = p
	}
	want := map[string]string{
		"aorb":   "357da2eb8dbd3c33704140ab89236b71cf754b6a08cc8f74028431f9b9dc831a",
		"dc":     "f8ac471929cb2332de4a4bab9dcc1110a63aa5eead71146103f0e7b383592ce2",
		"r12x3":  "56160a75282907bdf3c2f1142159aa82e58f73e9fbd430c2fd0572605254274e",
		"r130":   "80121e09a15f4a9ca0550dae89e5614102f86a8746428231b976dc4a1d56d746",
		"r66":    "2dc727e805c2c5af099dcc03e8fb06a6ec5739854b25c70cd961ceee5ff59b54",
		"r70":    "11a182ebbc4be48235d86946d8f2adf8e7e69a9e86016b890dd2f7fbc0833d1c",
		"r8x4":   "b8330c5b7d312d26c59113353e839ce8e46a4c0655121c64210e20752ac46174",
		"sample": "eec543865b73e2b4d2c01793fffeb414a7ee0d34cd94c5359872aa045890943b",
	}
	for name, p := range plas {
		var buf bytes.Buffer
		if err := WritePLA(&buf, MinimizePLA(p)); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got := hex.EncodeToString(sum[:])
		if w, ok := want[name]; !ok {
			t.Errorf("%q: %q, (no golden entry)", name, got)
		} else if got != w {
			t.Errorf("%s: MinimizePLA hash %s, want %s", name, got, w)
		}
	}
}
