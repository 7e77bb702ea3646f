package fault

import (
	"context"
	"math/rand"
	"testing"

	"seqatpg/internal/encode"
	"seqatpg/internal/fsm"
	"seqatpg/internal/netlist"
	"seqatpg/internal/retime"
	"seqatpg/internal/sim"
	"seqatpg/internal/synth"
)

// The two benchmark circuits: a small control FSM and a mid-size one.
// Both are synthesized with the full flow (combined encoding, rugged
// script, unreachable-state don't-cares) so the gate-level structure is
// realistic, not random.
var (
	benchSmallSpec = fsm.GenSpec{Name: "bf", Inputs: 6, Outputs: 4, States: 16, Seed: 5}
	benchMidSpec   = fsm.GenSpec{Name: "bm", Inputs: 8, Outputs: 6, States: 48, Seed: 7}
)

// benchCircuit synthesizes the spec'd FSM into a gate-level circuit.
func benchCircuit(b *testing.B, spec fsm.GenSpec) *netlist.Circuit {
	b.Helper()
	m, err := fsm.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	r, err := synth.Synthesize(m, synth.Options{
		Algorithm: encode.Combined, Script: synth.Rugged, UseUnreachableDC: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return r.Circuit
}

// benchSeq builds the fixed benchmark sequence: a reset vector followed
// by random binary vectors.
func benchSeq(nPI, frames int) [][]sim.Val {
	rng := rand.New(rand.NewSource(1))
	seq := make([][]sim.Val, frames)
	for t := range seq {
		vec := make([]sim.Val, nPI)
		if t == 0 {
			vec[0] = sim.V1
		} else {
			for i := 1; i < len(vec); i++ {
				vec[i] = sim.Val(rng.Intn(2))
			}
		}
		seq[t] = vec
	}
	return seq
}

// benchSim runs b.N full passes of seq over the collapsed universe and
// reports throughput plus the kernel's work-avoidance counters.
func benchSim(b *testing.B, c *netlist.Circuit, frames, workers int) {
	b.Helper()
	faults := CollapsedUniverse(c)
	fs, err := NewSimulator(c)
	if err != nil {
		b.Fatal(err)
	}
	seq := benchSeq(len(c.PIs), frames)
	before := fs.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if workers <= 1 {
			_, err = fs.Detects(seq, faults)
		} else {
			_, err = fs.DetectsParallel(context.Background(), seq, faults, workers)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := fs.Stats()
	b.ReportMetric(float64(len(faults)), "faults/pass")
	b.ReportMetric(float64(after.GateEvalsAvoided-before.GateEvalsAvoided)/float64(b.N), "evals-avoided/pass")
}

// BenchmarkParallelFaultSim is the fixed baseline: one full pass of a
// 24-vector sequence over the collapsed fault universe of the mid-size
// control circuit (~950 gates, ~2200 collapsed faults), single-threaded
// — the seed kernel's configuration, so the speedup ratios below
// measure against it.
func BenchmarkParallelFaultSim(b *testing.B) {
	benchSim(b, benchCircuit(b, benchMidSpec), 24, 1)
}

// BenchmarkParallelFaultSimWorkers shows DetectsParallel scaling on the
// same workload. Every worker count returns identical results; workers
// take batches one at a time from an atomic counter, so there is no
// dispatch channel on the hot path. Scaling is bounded
// by the host's real core count: on a single-CPU container every
// worker count measures the same.
func BenchmarkParallelFaultSimWorkers(b *testing.B) {
	c := benchCircuit(b, benchMidSpec)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "w1", 2: "w2", 4: "w4", 8: "w8"}[w], func(b *testing.B) {
			benchSim(b, c, 24, w)
		})
	}
}

// BenchmarkFaultSimSmall keeps the small circuit as a secondary point:
// high-activity small circuits are the event-driven kernel's worst
// case. Measured ~0.41 ms per pass (median of 8 runs, 2-CPU host).
func BenchmarkFaultSimSmall(b *testing.B) {
	benchSim(b, benchCircuit(b, benchSmallSpec), 12, 1)
}

// BenchmarkActiveRegionVsOblivious isolates the event-driven active-
// region machinery: the same workload with the default adaptive
// threshold, with fallback disabled (pure event-driven), and with an
// immediate fallback (pure oblivious full sweeps, the old kernel's
// evaluation strategy).
func BenchmarkActiveRegionVsOblivious(b *testing.B) {
	c := benchCircuit(b, benchMidSpec)
	faults := CollapsedUniverse(c)
	seq := benchSeq(len(c.PIs), 24)
	for _, tc := range []struct {
		name string
		mode int
	}{
		{"active", 0},
		{"event-only", -1},
		{"oblivious", 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			fs, err := NewSimulator(c)
			if err != nil {
				b.Fatal(err)
			}
			fs.fallbackEvals = tc.mode
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fs.Detects(seq, faults); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOriginalVsRetimed compares fault-sim cost on the original
// circuit against its backward-retimed version (the paper's core
// comparison: retiming changes the state encoding, and the test set
// must be re-graded on the transformed circuit). The retimed run
// prefixes the flush cycles the retimed machine needs to align state.
func BenchmarkOriginalVsRetimed(b *testing.B) {
	c := benchCircuit(b, benchSmallSpec)
	re, err := retime.Backward(c, netlist.DefaultLibrary(), 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("original", func(b *testing.B) {
		benchSim(b, c, 12, 1)
	})
	b.Run("retimed", func(b *testing.B) {
		benchSim(b, re.Circuit, 12+re.FlushCycles, 1)
	})
}
