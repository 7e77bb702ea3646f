package atpg

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
)

func mustEngine(t *testing.T, c *netlist.Circuit, cfg Config) *Engine {
	t.Helper()
	e, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestInterruptedRunResumesExactly: cancel a run mid-list, snapshot it,
// restore the snapshot on a fresh engine, and require the final Stats,
// Outcomes and test count to be identical to a never-interrupted run.
// Exercised across the three engine personalities (plain, learning,
// random-preprocessing) because each mutates different engine state.
func TestInterruptedRunResumesExactly(t *testing.T) {
	c := synthC(t, 9, 12)
	faults := fault.CollapsedUniverse(c)
	cap := 60
	if testing.Short() {
		cap = 30
	}
	if len(faults) > cap {
		faults = faults[:cap]
	}
	cancelAts := []int{0, 7, len(faults) / 2}
	if testing.Short() {
		cancelAts = []int{0, 7}
	}

	configs := map[string]Config{
		"plain": defaultCfg(),
		"learning": func() Config {
			cfg := defaultCfg()
			cfg.Learning = true
			return cfg
		}(),
		"random": func() Config {
			cfg := defaultCfg()
			cfg.RandomSequences = 4
			cfg.RandomLength = 12
			cfg.Seed = 7
			return cfg
		}(),
	}

	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			ref, err := mustEngine(t, c, cfg).RunFaults(faults)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Interrupted {
				t.Fatal("reference run reported interrupted")
			}

			for _, cancelAt := range cancelAts {
				ctx, cancel := context.WithCancel(context.Background())
				e := mustEngine(t, c, cfg)
				e.TestHook = func(i int, _ fault.Fault) {
					if i >= cancelAt {
						cancel()
					}
				}
				partial, snap, err := e.ResumeFaults(ctx, faults, nil, nil)
				cancel()
				if err != nil {
					t.Fatal(err)
				}
				if !partial.Interrupted {
					// The hook fires per attempted fault; if every fault at
					// or after cancelAt was already resolved by dropping,
					// the run can finish legitimately.
					if cancelAt == 0 {
						t.Fatal("cancel at fault 0 did not interrupt the run")
					}
					continue
				}
				if snap == nil {
					t.Fatal("interrupted run returned no snapshot")
				}

				resumed, finalSnap, err := mustEngine(t, c, cfg).ResumeFaults(context.Background(), faults, snap, nil)
				if err != nil {
					t.Fatal(err)
				}
				if resumed.Interrupted || finalSnap != nil {
					t.Fatal("resumed run did not finish")
				}
				if !reflect.DeepEqual(resumed.Stats, ref.Stats) {
					t.Errorf("cancelAt=%d: resumed stats %+v != reference %+v", cancelAt, resumed.Stats, ref.Stats)
				}
				if !reflect.DeepEqual(resumed.Outcomes, ref.Outcomes) {
					t.Errorf("cancelAt=%d: resumed outcomes diverge from reference", cancelAt)
				}
				if len(resumed.Tests) != len(ref.Tests) {
					t.Errorf("cancelAt=%d: resumed %d tests, reference %d", cancelAt, len(resumed.Tests), len(ref.Tests))
				}
			}
		})
	}
}

// TestCancelAtEveryPollResumesExactly: a run with the hitec preset's
// search (defaultCfg) cancelled at each of its cancellation polls in
// turn — the drop pass between a fault's search and its boundary among
// them — and resumed from its snapshot must end on the uninterrupted
// run's Result: the same verdicts, tests, traversed states and every
// counter.
func TestCancelAtEveryPollResumesExactly(t *testing.T) {
	c := synthC(t, 5, 3)
	faults := fault.CollapsedUniverse(c)[:12]
	cfg := defaultCfg()
	cfg.FaultBudget = 20_000
	ref, err := mustEngine(t, c, cfg).RunFaults(faults)
	if err != nil {
		t.Fatal(err)
	}
	n := 1
	for ; ; n++ {
		e := mustEngine(t, c, cfg)
		e.pollsToCancel = n
		partial, snap, err := e.ResumeFaults(context.Background(), faults, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !partial.Interrupted {
			break
		}
		res, _, err := mustEngine(t, c, cfg).ResumeFaults(context.Background(), faults, snap, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("cancelled at poll %d: resumed stats %+v, reference %+v", n, res.Stats, ref.Stats)
		}
	}
	t.Logf("cancelled and resumed at each of %d polls", n-1)
}

// TestCancelledRunReturnsPartialResult: an interrupted run still hands
// back the outcomes and stats accumulated so far, and its snapshot
// reflects the last completed boundary.
func TestCancelledRunReturnsPartialResult(t *testing.T) {
	c := synthC(t, 9, 12)
	faults := fault.CollapsedUniverse(c)[:40]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := mustEngine(t, c, defaultCfg())
	const cancelAt = 10
	e.TestHook = func(i int, _ fault.Fault) {
		if i >= cancelAt {
			cancel()
		}
	}
	res, snap, err := e.ResumeFaults(ctx, faults, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("run was not interrupted")
	}
	if len(res.Outcomes) != len(faults) {
		t.Fatalf("partial result has %d outcomes, want %d", len(res.Outcomes), len(faults))
	}
	if res.Stats.Detected+res.Stats.Redundant == 0 {
		t.Error("partial result carries no progress")
	}
	if snap.Next < cancelAt || snap.Next > len(faults) {
		t.Errorf("snapshot next = %d, want >= %d", snap.Next, cancelAt)
	}
	// The stats counters must agree exactly with the snapshot's
	// resolved status entries (fault dropping may resolve faults far
	// past the boundary index, so compare against status, not Next).
	resolved := 0
	for _, st := range snap.Status {
		if st != 0 {
			resolved++
		}
	}
	if got := res.Stats.Detected + res.Stats.Redundant + res.Stats.Aborted + res.Stats.Crashed; got != resolved {
		t.Errorf("stats account for %d faults but snapshot resolves %d", got, resolved)
	}
}

// TestPreCancelledContextInterruptsImmediately: a context that is
// already cancelled produces an interrupted, zero-progress result
// rather than an error or a full run.
func TestPreCancelledContextInterruptsImmediately(t *testing.T) {
	c := synthC(t, 7, 5)
	faults := fault.CollapsedUniverse(c)[:20]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := mustEngine(t, c, defaultCfg())
	res, snap, err := e.ResumeFaults(ctx, faults, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("pre-cancelled context did not interrupt")
	}
	if res.Stats.Effort != 0 {
		t.Errorf("pre-cancelled run burned %d effort", res.Stats.Effort)
	}
	if snap == nil || snap.Next != 0 {
		t.Errorf("snapshot = %+v, want next 0", snap)
	}
}

// TestPanicIsolatedAsCrashed: a panicking fault search is recorded as
// Crashed with diagnostics and does not abort the remaining faults.
func TestPanicIsolatedAsCrashed(t *testing.T) {
	c := synthC(t, 9, 12)
	faults := fault.CollapsedUniverse(c)[:30]
	// Crash the first fault actually attempted at or after index 3
	// (earlier tests may resolve index 3 itself by fault dropping).
	crashAt := -1
	e := mustEngine(t, c, defaultCfg())
	e.TestHook = func(i int, _ fault.Fault) {
		if i >= 3 && crashAt < 0 {
			crashAt = i
			panic("injected fault-search failure")
		}
	}
	res, err := e.RunFaults(faults)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("crash interrupted the run")
	}
	if res.Outcomes[crashAt] != Crashed {
		t.Fatalf("outcome[%d] = %v, want crashed", crashAt, res.Outcomes[crashAt])
	}
	if res.Stats.Crashed != 1 {
		t.Errorf("Stats.Crashed = %d, want 1", res.Stats.Crashed)
	}
	if len(res.Crashes) != 1 {
		t.Fatalf("%d crash records, want 1", len(res.Crashes))
	}
	crash := res.Crashes[0]
	if crash.Index != crashAt || !strings.Contains(crash.Panic, "injected fault-search failure") {
		t.Errorf("crash record %+v does not describe the injected panic", crash)
	}
	if !strings.Contains(crash.Stack, "generateSafe") {
		t.Errorf("crash stack does not reach the recover site:\n%s", crash.Stack)
	}
	if !strings.Contains(crash.Error(), "panicked") {
		t.Errorf("crash error %q not descriptive", crash.Error())
	}
	// Every other fault still reached a verdict.
	sum := res.Stats.Detected + res.Stats.Redundant + res.Stats.Aborted + res.Stats.Crashed
	if sum != len(faults) {
		t.Errorf("outcome sum %d != %d faults", sum, len(faults))
	}
	if res.Stats.Detected == 0 {
		t.Error("no detections after the crash: isolation failed")
	}
}

// TestSnapshotRejectsMismatchedFaultList: restoring a snapshot onto a
// run with a different fault-list length must fail loudly.
func TestSnapshotRejectsMismatchedFaultList(t *testing.T) {
	c := synthC(t, 7, 5)
	faults := fault.CollapsedUniverse(c)[:20]
	ctx, cancel := context.WithCancel(context.Background())
	e := mustEngine(t, c, defaultCfg())
	e.TestHook = func(i int, _ fault.Fault) {
		if i >= 5 {
			cancel()
		}
	}
	_, snap, err := e.ResumeFaults(ctx, faults, nil, nil)
	cancel()
	if err != nil || snap == nil {
		t.Fatalf("setup run: snap=%v err=%v", snap, err)
	}
	if _, _, err := mustEngine(t, c, defaultCfg()).ResumeFaults(context.Background(), faults[:10], snap, nil); err == nil {
		t.Fatal("mismatched fault list accepted")
	}
}
