package fault_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"testing"

	"seqatpg/internal/bench"
	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

var updateKernel = flag.Bool("update-kernel", false, "rewrite testdata/kernel_golden.json")

// kernelGolden pins one circuit's grading: the SHA-256 of each
// sequence's detection vector and the kernel's Stats after all of them.
type kernelGolden struct {
	Circuit    string      `json:"circuit"`
	Faults     int         `json:"faults"`
	Detections []string    `json:"detections_sha256"`
	Stats      fault.Stats `json:"stats"`
}

// goldenSeqs and goldenCycles size each circuit's grading: a reset
// flush, then goldenCycles random binary vectors, goldenSeqs times.
const (
	goldenSeqs   = 3
	goldenCycles = 24
)

// TestKernelGolden pins the fault kernel's observable behaviour on the
// paper's 12 suite circuits (the first bench.PairSpecs pair of each
// machine, original and retimed) against testdata/kernel_golden.json:
// every detection vector of the full collapsed universe under seeded
// random sequences, and the full Stats snapshot — batches, frames,
// events, gate evaluations, fallbacks and early exits. A change to how
// the kernel stores or schedules batch values must leave all of it
// unchanged. Sequences alternate between 1, 2 and 3 workers; the
// results and Stats are worker-invariant, so they share one table.
// Random sequences leave some fault in almost every batch undetected,
// so each circuit's first sequence is graded once more against just
// the faults it detected: there most batches exit early.
func TestKernelGolden(t *testing.T) {
	var want []kernelGolden
	if !*updateKernel {
		data, err := os.ReadFile("testdata/kernel_golden.json")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	s := bench.NewSuite(bench.QuickBudget())
	seen := map[string]bool{}
	var got []kernelGolden
	for _, spec := range bench.PairSpecs() {
		if seen[spec.FSM] {
			continue
		}
		seen[spec.FSM] = true
		p, err := s.Pair(spec)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got,
			gradeGolden(t, spec.Name(), p.Orig.Circuit, 1, int64(len(got))),
			gradeGolden(t, spec.Name()+".re", p.Re.Circuit, p.Re.FlushCycles, int64(len(got)+1)))
	}
	if *updateKernel {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/kernel_golden.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%d circuits, golden table has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Circuit != w.Circuit || g.Faults != w.Faults || g.Stats != w.Stats ||
			len(g.Detections) != len(w.Detections) {
			t.Errorf("%s:\n got %+v\nwant %+v", w.Circuit, g, w)
			continue
		}
		for k := range w.Detections {
			if g.Detections[k] != w.Detections[k] {
				t.Errorf("%s sequence %d: detections %s, want %s", w.Circuit, k, g.Detections[k], w.Detections[k])
			}
		}
	}
}

func gradeGolden(t *testing.T, name string, c *netlist.Circuit, flush int, seed int64) kernelGolden {
	t.Helper()
	universe := fault.CollapsedUniverse(c)
	fs, err := fault.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	g := kernelGolden{Circuit: name, Faults: len(universe)}
	var first [][]sim.Val
	var caught []fault.Fault
	grade := func(seq [][]sim.Val, faults []fault.Fault, workers int) []bool {
		det, err := fs.DetectsParallel(context.Background(), seq, faults, workers)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		for _, d := range det {
			b := byte('0')
			if d {
				b = '1'
			}
			h.Write([]byte{b})
		}
		g.Detections = append(g.Detections, hex.EncodeToString(h.Sum(nil)))
		return det
	}
	for k := 0; k < goldenSeqs; k++ {
		seq := resetSeq(c, flush, rng)
		det := grade(seq, universe, 1+k%3)
		if k == 0 {
			first = seq
			for i, d := range det {
				if d {
					caught = append(caught, universe[i])
				}
			}
		}
	}
	grade(first, caught, 2)
	g.Stats = fs.Stats()
	return g
}

// resetSeq holds reset for flush cycles (every other input 0), then
// applies goldenCycles random binary vectors with reset released.
func resetSeq(c *netlist.Circuit, flush int, rng *rand.Rand) [][]sim.Val {
	reset := -1
	for i, id := range c.PIs {
		if id == c.ResetPI {
			reset = i
		}
	}
	var seq [][]sim.Val
	for k := 0; k < flush+goldenCycles; k++ {
		vec := make([]sim.Val, len(c.PIs))
		for i := range vec {
			if k >= flush {
				vec[i] = sim.Val(rng.Intn(2))
			}
		}
		if reset >= 0 {
			vec[reset] = sim.V0
			if k < flush {
				vec[reset] = sim.V1
			}
		}
		seq = append(seq, vec)
	}
	return seq
}
