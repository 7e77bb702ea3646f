package atpg

import (
	"reflect"
	"testing"

	"seqatpg/internal/fault"
	"seqatpg/internal/sim"
)

// cdclModes is the ladder the verdict-invariance matrix walks: each
// step turns on one more piece of the conflict-driven machinery. The
// rungs below the full search exist only as engine fields, so rung
// switches them off on the built engine.
var cdclModes = []struct {
	name   string
	mutate func(*Config)
	rung   func(*Engine)
}{
	{"off", func(c *Config) {}, nil},
	{"cubes-only", conflictLearning, cubesOnly},
	{"backjump", conflictLearning, backjumpOnly},
	{"restarts", conflictLearning, nil},
	{"full-shared", func(c *Config) {
		c.Learning = true
		c.SharedLearning = true
		c.ConflictLearning = true
	}, nil},
}

func conflictLearning(c *Config) { c.ConflictLearning = true }

// cubesOnly consults learned cubes only as post-simulation conflicts.
func cubesOnly(e *Engine) { e.backjump, e.restarts = false, false }

// backjumpOnly resolves cube conflicts before simulation but never
// restarts.
func backjumpOnly(e *Engine) { e.restarts = false }

// TestCdclVerdictInvariance: learned cubes only ever cover refuted
// assignment regions and restarts only permute enumeration order, so
// under generous budgets every knob combination must produce exactly
// the verdicts of the non-learning baseline, fault by fault.
func TestCdclVerdictInvariance(t *testing.T) {
	seeds := []int64{5, 9}
	cap := 48
	if testing.Short() {
		seeds, cap = seeds[:1], 24
	}
	for _, seed := range seeds {
		c := synthC(t, 7, seed)
		faults := fault.CollapsedUniverse(c)
		if len(faults) > cap {
			faults = faults[:cap]
		}
		var ref []Outcome
		for _, m := range cdclModes {
			cfg := defaultCfg()
			m.mutate(&cfg)
			e, err := New(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.rung != nil {
				m.rung(e)
			}
			res, err := e.RunFaults(faults)
			if err != nil {
				t.Fatal(err)
			}
			if m.name == "off" {
				ref = res.Outcomes
				continue
			}
			if !reflect.DeepEqual(res.Outcomes, ref) {
				t.Errorf("seed %d: mode %s verdicts diverge from baseline", seed, m.name)
			}
			if m.name == "cubes-only" && (res.Stats.Backjumps != 0 || res.Stats.Restarts != 0) {
				t.Errorf("seed %d: cubes-only counted %d backjumps, %d restarts",
					seed, res.Stats.Backjumps, res.Stats.Restarts)
			}
		}
	}
}

// TestCdclEffortNotWorse pins the perf claim behind the sest-cdcl
// preset on the circuit the matrix uses: with backjumping on, the
// charged gate evaluations must not exceed the baseline's — every cube
// conflict resolved pre-simulation is a simulation the baseline paid
// for.
func TestCdclEffortNotWorse(t *testing.T) {
	c := synthC(t, 7, 5)
	faults := fault.CollapsedUniverse(c)
	cap := 48
	if testing.Short() {
		cap = 24
	}
	if len(faults) > cap {
		faults = faults[:cap]
	}
	run := func(cdcl bool) *Result {
		cfg := defaultCfg()
		cfg.ConflictLearning = cdcl
		e := mustEngine(t, c, cfg)
		backjumpOnly(e)
		res, err := e.RunFaults(faults)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(false)
	cdcl := run(true)
	if cdcl.Stats.Effort > base.Stats.Effort {
		t.Errorf("backjump mode charged %d gate evals, baseline %d", cdcl.Stats.Effort, base.Stats.Effort)
	}
	if cdcl.Stats.LearnedCubes == 0 {
		t.Error("backjump mode learned no cubes on a circuit with conflicts")
	}
}

// TestCdclCubeReplay is the differential soundness check for the
// conflict analyzer: every learned cube, replayed alone on a fresh
// window of the same geometry and fault, must force the refuting line
// to the value the analyzer claimed. A cube that does not reproduce its
// conflict would prune regions that were never refuted.
func TestCdclCubeReplay(t *testing.T) {
	c := synthC(t, 7, 5)
	faults := fault.CollapsedUniverse(c)
	cap := 12
	if testing.Short() {
		cap = 6
	}
	if len(faults) > cap {
		faults = faults[:cap]
	}
	replayed := 0
	for fi := range faults {
		f := faults[fi]
		cfg := defaultCfg()
		cfg.Learning = true
		cfg.SharedLearning = true
		cfg.ConflictLearning = true
		e, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var recs []CubeRecord
		e.TestCubeHook = func(rec CubeRecord) {
			if len(recs) < 64 {
				recs = append(recs, rec)
			}
		}
		if _, err := e.RunFaults(faults[fi : fi+1]); err != nil {
			t.Fatal(err)
		}
		for ri, rec := range recs {
			w := newWindow(soaOf(t, c), rec.K, &f)
			for _, l := range rec.Lits {
				if l.IsState {
					w.setState(l.Index, l.Val)
				} else {
					w.setPI(l.Frame, l.Index, l.Val)
				}
			}
			w.simulate()
			if got := railVal(w, rec.OnF, rec.Frame, int(w.s.Pos[rec.Gate])); got != rec.Val {
				t.Errorf("fault %v cube %d: replay of %d lits on frame %d gate %d (onF=%v) gives %v, analyzer claimed %v",
					f, ri, len(rec.Lits), rec.Frame, rec.Gate, rec.OnF, got, rec.Val)
			}
			replayed++
		}
	}
	if replayed == 0 {
		t.Fatal("no learned cubes were replayed; the differential check did not run")
	}
	t.Logf("replayed %d learned cubes", replayed)
}

// TestLemmaStoreSnapshotRoundTrip: the shared lemma store must survive
// a Snapshot/restore cycle verbatim, in insertion order, with the dedup
// index rebuilt.
func TestLemmaStoreSnapshotRoundTrip(t *testing.T) {
	c := synthC(t, 7, 5)
	cfg := defaultCfg()
	cfg.Learning = true
	cfg.SharedLearning = true
	cfg.ConflictLearning = true
	e, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.addLemma(LearnedCube{Cube: "01X", Bit: 2, Val: sim.V1})
	e.addLemma(LearnedCube{Cube: "X10", Bit: 0, Val: sim.V0})
	e.addLemma(LearnedCube{Cube: "01X", Bit: 2, Val: sim.V1}) // dup
	if len(e.lemmas.order) != 2 {
		t.Fatalf("lemma journal holds %d entries, want 2", len(e.lemmas.order))
	}
	rs := &runLoopState{status: make([]Verdict, 3), tests: make([][][]sim.Val, 0)}
	snap := e.buildSnapshot(rs)
	e2, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs2 := &runLoopState{}
	if err := e2.restoreSnapshot(snap, rs2, 3); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e2.lemmas.order, e.lemmas.order) {
		t.Errorf("lemma journal round-tripped as %v, want %v", e2.lemmas.order, e.lemmas.order)
	}
	if !e2.lemmas.has(LearnedCube{Cube: "X10", Bit: 0, Val: sim.V0}) {
		t.Error("lemma dedup index was not rebuilt on restore")
	}
}
