package atpg

import (
	"testing"

	"seqatpg/internal/encode"
	"seqatpg/internal/fault"
	"seqatpg/internal/fsm"
	"seqatpg/internal/netlist"
	"seqatpg/internal/retime"
	"seqatpg/internal/sim"
	"seqatpg/internal/synth"
)

func synthForBench(b testing.TB) *netlist.Circuit {
	b.Helper()
	m, err := fsm.Generate(fsm.GenSpec{Name: "bench", Inputs: 4, Outputs: 3, States: 12, Seed: 31})
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

// benchPair builds the original circuit and its backward-retimed
// counterpart — the pairing the paper's complexity argument (and this
// PR's speedup target) is about.
func benchPair(b testing.TB) (orig *netlist.Circuit, re *netlist.Circuit, reFlush int) {
	b.Helper()
	orig = synthForBench(b)
	r, err := retime.Backward(orig, netlist.DefaultLibrary(), 2)
	if err != nil {
		b.Fatal(err)
	}
	return orig, r.Circuit, r.FlushCycles
}

// BenchmarkWindowSweep measures the from-scratch iterative-array sweep:
// the cost the pre-incremental engine paid for every PODEM probe (an
// 8-frame window over a mid-size circuit with an injected fault).
func BenchmarkWindowSweep(b *testing.B) {
	c := synthForBench(b)
	order, err := c.TopoOrder()
	if err != nil {
		b.Fatal(err)
	}
	f := &fault.Fault{Gate: c.DFFs[0], Pin: -1, SA: sim.V1}
	w := newWindow(soaOf(b, c), 8, f)
	for i := range w.piVals[0] {
		w.piVals[0][i] = sim.V0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.invalidate()
		w.simulate()
	}
	b.ReportMetric(float64(8*len(order)), "gate-frames/op")
}

// BenchmarkWindowIncremental measures the event-driven probe cost: one
// frame-0 PI toggles per iteration, so only its fanout cone re-evaluates.
// Compare against BenchmarkWindowSweep for the per-probe speedup.
func BenchmarkWindowIncremental(b *testing.B) {
	c := synthForBench(b)
	f := &fault.Fault{Gate: c.DFFs[0], Pin: -1, SA: sim.V1}
	w := newWindow(soaOf(b, c), 8, f)
	for i := range w.piVals[0] {
		w.piVals[0][i] = sim.V0
	}
	w.simulate()
	vals := [2]sim.Val{sim.V0, sim.V1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.setPI(0, i%len(c.PIs), vals[(i/len(c.PIs))%2])
		w.simulate()
	}
}

// BenchmarkSearch measures end-to-end deterministic test generation on
// the original/retimed pair, in plain incremental mode, in oblivious
// verification mode (which re-derives every probe with the full sweep
// the old engine paid for — the speedup baseline), with the shared
// cross-fault justification cache, and with the full conflict-driven
// stack (learned blocking cubes + backjumping + restarts) on top of the
// shared cache. Effort (gate evaluations actually charged), detected
// faults and aborted faults are reported as metrics; effort is identical
// between incremental and oblivious by construction, so that ns/op
// ratio isolates the simulation win, while the cdcl rows should show
// reduced charged effort and aborts at equal detections.
func BenchmarkSearch(b *testing.B) {
	orig, re, reFlush := benchPair(b)
	circuits := []struct {
		name  string
		c     *netlist.Circuit
		flush int
	}{
		{"orig", orig, 1},
		{"retimed", re, reFlush},
	}
	for _, cc := range circuits {
		faults := searchFaults(cc.c)
		for _, m := range searchModes {
			b.Run(cc.name+"/"+m.name, func(b *testing.B) {
				var stats Stats
				for i := 0; i < b.N; i++ {
					e := m.newEngine(b, cc.c, cc.flush)
					res, err := e.RunFaults(faults)
					if err != nil {
						b.Fatal(err)
					}
					stats = res.Stats
				}
				b.ReportMetric(float64(stats.Effort), "gate-evals/op")
				b.ReportMetric(float64(stats.Detected), "detected/op")
				b.ReportMetric(float64(stats.Aborted), "aborted/op")
			})
		}
	}
}

// searchMode is one engine configuration of the search benchmark.
type searchMode struct {
	name   string
	mutate func(*Config)
	// oblivious selects the from-scratch reference simulation.
	oblivious bool
}

// searchModes are the configurations BenchmarkSearch times and
// TestEngineGolden pins.
var searchModes = []searchMode{
	{"incremental", nil, false},
	{"oblivious", nil, true},
	{"shared-cache", func(c *Config) { c.Learning = true; c.SharedLearning = true }, false},
	{"cdcl", func(c *Config) {
		c.Learning = true
		c.SharedLearning = true
		c.ConflictLearning = true
	}, false},
}

// newEngine builds the engine of one mode. 200k per fault is
// deliberately tight enough that the retimed circuit's hardest fault
// aborts under the shared cache but completes under cdcl's cheaper
// search — the aborted-fault reduction the cdcl rows exist to
// demonstrate.
func (m searchMode) newEngine(tb testing.TB, c *netlist.Circuit, flush int) *Engine {
	tb.Helper()
	cfg := Config{
		MaxFrames: 6, MaxBackSteps: 24, BacktrackLimit: 1000,
		FaultBudget: 200_000, FlushCycles: flush,
	}
	if m.mutate != nil {
		m.mutate(&cfg)
	}
	e, err := New(c, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	e.oblivious = m.oblivious
	return e
}

// searchFaults is the fault list BenchmarkSearch runs: the first 24
// collapsed faults.
func searchFaults(c *netlist.Circuit) []fault.Fault {
	faults := fault.CollapsedUniverse(c)
	if len(faults) > 24 {
		faults = faults[:24]
	}
	return faults
}

// BenchmarkGeneratePerFault measures end-to-end per-fault generation on
// a small control circuit (20 collapsed faults per iteration).
func BenchmarkGeneratePerFault(b *testing.B) {
	c := synthForBench(b)
	faults := fault.CollapsedUniverse(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(c, Config{
			MaxFrames: 6, MaxBackSteps: 24, BacktrackLimit: 1000,
			FaultBudget: 400_000, FlushCycles: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.RunFaults(faults[:20]); err != nil {
			b.Fatal(err)
		}
	}
}
