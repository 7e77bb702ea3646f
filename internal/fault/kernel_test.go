package fault

import (
	"context"
	"math/rand"
	"testing"

	"seqatpg/internal/sim"
)

// TestWidthWorkerMatrix sweeps the kernel configuration space —
// worker count (1/2/3/8) × fallback mode (default active-region, never,
// always-oblivious) — on randomized circuits and asserts:
//
//   - every combination's detection vector is byte-identical to the
//     serial reference (workers are a throughput knob, never a result
//     knob);
//   - at a fixed fallback point the full Stats snapshot is identical
//     across worker counts: partitioning changes only the order the
//     per-arena counters merge in, and the sums are order-independent;
//   - the batch count is exactly ceil(nFaults/FaultsPerPass).
func TestWidthWorkerMatrix(t *testing.T) {
	trials := 5
	if testing.Short() {
		trials = 2
	}
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < trials; trial++ {
		c := randomDiffCircuit(t, rng, 2000+trial)
		faults := FullUniverse(c)
		seq := randomXSeq(rng, len(c.PIs), 4+rng.Intn(8), 0.25)
		fs, err := NewSimulator(c)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := fs.Detects(seq, faults)
		if err != nil {
			t.Fatal(err)
		}
		for _, fb := range []int{0, -1, 1} {
			fs.fallbackEvals = fb
			var want Stats
			for wi, workers := range []int{1, 2, 3, 8} {
				fs.ResetStats()
				got, err := fs.DetectsParallel(context.Background(), seq, faults, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("trial %d fb %d workers %d fault %v: got %v, ref %v",
							trial, fb, workers, faults[i], got[i], ref[i])
					}
				}
				st := fs.Stats()
				wantBatches := int64((len(faults) + FaultsPerPass - 1) / FaultsPerPass)
				if st.Batches != wantBatches {
					t.Fatalf("trial %d workers %d: %d batches, want %d",
						trial, workers, st.Batches, wantBatches)
				}
				if wi == 0 {
					want = st
				} else if st != want {
					t.Fatalf("trial %d fb %d workers %d: stats %+v, want %+v (workers=1)",
						trial, fb, workers, st, want)
				}
			}
		}
		fs.fallbackEvals = 0
	}
}

// TestArenaReuseAcrossPasses hammers the pooled batch arenas: one
// simulator runs many passes with varying sequences, fault subsets
// (in shuffled order) and worker counts, and every result must match a
// fresh simulator's. Any state leaking across passes — stale injection
// tables, seed or pend bits, DFF words, touched lists — shows up as a
// divergence.
func TestArenaReuseAcrossPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	c := randomDiffCircuit(t, rng, 3000)
	faults := FullUniverse(c)
	fs, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 6
	if testing.Short() {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		seq := randomXSeq(rng, len(c.PIs), 3+round, 0.3)
		perm := rng.Perm(len(faults))
		n := len(faults)/2 + rng.Intn(len(faults)/2)
		sub := make([]Fault, n)
		for i := 0; i < n; i++ {
			sub[i] = faults[perm[i]]
		}
		got, err := fs.DetectsParallel(context.Background(), seq, sub, 1+round%3)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewSimulator(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Detects(seq, sub)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d fault %v: reused arena %v, fresh %v",
					round, sub[i], got[i], want[i])
			}
		}
	}
}

// TestBatchArenaResets white-boxes the arena contract: after runBatch
// the per-batch tables are empty, the pend bitset fully drained and
// every diff word zero — the next batch starts without a fill, so a
// stale divergence would corrupt it — and releasing the arena zeroes
// its locally accumulated counters (they have been merged into the
// simulator's stats). The diff check covers the three ways a batch
// ends: at the sequence end, by early exit once every fault is
// detected, and with its frames finished by the oblivious sweep.
func TestBatchArenaResets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomDiffCircuit(t, rng, 3500)
	faults := FullUniverse(c)
	fs, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	seq := randomXSeq(rng, len(c.PIs), 6, 0.2)
	if err := fs.simulateGood(seq); err != nil {
		t.Fatal(err)
	}
	bc := fs.getBatchCtx()
	n := min(len(faults), FaultsPerPass)
	detected := make([]bool, n)
	runBatch(fs, bc, len(seq), faults[:n], detected)
	if bc.frames != int64(len(seq)) || bc.earlyExits != 0 {
		t.Fatalf("sequence-end batch ran %d of %d frames (%d early exits)", bc.frames, len(seq), bc.earlyExits)
	}
	assertArenaReset(t, "sequence end", bc)
	if bc.nbatches != 1 {
		t.Fatalf("arena ran %d batches, want 1", bc.nbatches)
	}
	before := fs.Stats()
	fs.putBatchCtx(bc)
	after := fs.Stats()
	if bc.nbatches != 0 || bc.frames != 0 || bc.events != 0 || bc.evals != 0 ||
		bc.fallbacks != 0 || bc.earlyExits != 0 {
		t.Fatal("arena counters not zeroed on release")
	}
	if after.Batches != before.Batches+1 {
		t.Fatalf("stats batches %d after release, want %d", after.Batches, before.Batches+1)
	}
	// The pooled arena must serve the next batch identically.
	bc2 := fs.getBatchCtx()
	detected2 := make([]bool, n)
	runBatch(fs, bc2, len(seq), faults[:n], detected2)
	fs.putBatchCtx(bc2)
	for i := range detected {
		if detected[i] != detected2[i] {
			t.Fatalf("fault %v: first pass %v, pooled rerun %v", faults[i], detected[i], detected2[i])
		}
	}

	// Early exit: faults the sequence detects, graded against the
	// sequence with two more vectors, are all detected before its end.
	all, err := fs.Detects(seq, faults)
	if err != nil {
		t.Fatal(err)
	}
	var caught []Fault
	for i, d := range all {
		if d && len(caught) < FaultsPerPass {
			caught = append(caught, faults[i])
		}
	}
	long := append(append([][]sim.Val{}, seq...), randomXSeq(rng, len(c.PIs), 2, 0.2)...)
	if err := fs.simulateGood(long); err != nil {
		t.Fatal(err)
	}
	bc = fs.getBatchCtx()
	runBatch(fs, bc, len(long), caught, make([]bool, len(caught)))
	if bc.earlyExits != 1 {
		t.Fatalf("%d early exits on an all-detected batch, want 1", bc.earlyExits)
	}
	assertArenaReset(t, "early exit", bc)
	fs.putBatchCtx(bc)

	// Threshold 1: every frame trips the fallback, and later frames
	// run as full sweeps.
	fs.fallbackEvals = 1
	defer func() { fs.fallbackEvals = 0 }()
	bc = fs.getBatchCtx()
	runBatch(fs, bc, len(long), faults[:n], make([]bool, n))
	if bc.fallbacks == 0 {
		t.Fatal("threshold 1 batch never fell back")
	}
	assertArenaReset(t, "fallback sweep", bc)
	fs.putBatchCtx(bc)
}

// assertArenaReset checks the state an arena must be in between
// batches: no divergence, no injections, no touched positions and no
// pending events.
func assertArenaReset(t *testing.T, name string, bc *batchCtx) {
	t.Helper()
	for p, d := range bc.diff {
		if d != (sim.PVal{}) {
			t.Fatalf("%s: diff at position %d not zero: %+v", name, p, d)
		}
	}
	if len(bc.injSites) != 0 || len(bc.touched) != 0 {
		t.Fatalf("%s: arena tables not reset: %d injSites, %d touched",
			name, len(bc.injSites), len(bc.touched))
	}
	for p, injs := range bc.inject {
		if len(injs) != 0 {
			t.Fatalf("%s: inject table at position %d not cleared: %d entries", name, p, len(injs))
		}
	}
	for i, w := range bc.pend {
		if w != 0 {
			t.Fatalf("%s: pend word %d not drained: %#x", name, i, w)
		}
	}
}
