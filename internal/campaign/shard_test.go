package campaign

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"seqatpg/internal/atpg"
	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/retime"
)

// TestRunShardedShardCountInvariant is the acceptance bar for
// deterministic parallelism: on a retimed circuit (the paper's hard
// case) with a budget tight enough to abort faults, shards ∈ {1, 2, 4}
// must produce identical per-fault verdicts and identical aggregate
// counters — the detected/aborted sets may not depend on how the fault
// list was partitioned.
func TestRunShardedShardCountInvariant(t *testing.T) {
	orig := synthC(t, 9, 12)
	re, err := retime.Backward(orig, netlist.DefaultLibrary(), 2)
	if err != nil {
		t.Fatal(err)
	}
	c := re.Circuit
	faults := fault.CollapsedUniverse(c)
	cfg := Config{Engine: engineCfg(), Retries: 1}
	cfg.Engine.FaultBudget = 20_000
	cfg.Engine.FlushCycles = re.FlushCycles

	var ref *Result
	for _, shards := range []int{1, 2, 4} {
		res, err := Execute(context.Background(), c, faults, PlanRoundRobin(cfg, len(faults), shards), nil)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Interrupted {
			t.Fatalf("shards=%d: spuriously interrupted", shards)
		}
		if shards == 1 {
			ref = res
			if ref.Stats.Aborted == 0 {
				t.Fatal("budget not tight enough: nothing aborted, invariance proves nothing")
			}
			if ref.Stats.Detected == 0 {
				t.Fatal("nothing detected, invariance proves nothing")
			}
			continue
		}
		if !reflect.DeepEqual(res.Outcomes, ref.Outcomes) {
			for i := range res.Outcomes {
				if res.Outcomes[i] != ref.Outcomes[i] {
					t.Errorf("shards=%d: fault %d (%v): %v, 1 shard gave %v",
						shards, i, faults[i], res.Outcomes[i], ref.Outcomes[i])
				}
			}
		}
		if !reflect.DeepEqual(res.Stats, ref.Stats) {
			t.Errorf("shards=%d: stats %+v != 1-shard stats %+v", shards, res.Stats, ref.Stats)
		}
		if len(res.Tests) != len(ref.Tests) {
			t.Errorf("shards=%d: %d tests, 1 shard generated %d", shards, len(res.Tests), len(ref.Tests))
		}
	}
	t.Logf("invariant across shard counts: %d detected, %d aborted, FE %.2f%%",
		ref.Stats.Detected, ref.Stats.Aborted, ref.Stats.FE())
}

// TestRunShardedInterruptResume: a sharded campaign interrupted mid-run
// leaves per-shard checkpoints and, resumed with the same shard count,
// finishes with verdicts and counters identical to an uninterrupted
// sharded run.
func TestRunShardedInterruptResume(t *testing.T) {
	c := synthC(t, 9, 12)
	faults := fault.CollapsedUniverse(c)
	if len(faults) > 60 {
		faults = faults[:60]
	}
	const shards = 2
	base := Config{Engine: engineCfg(), Retries: 1}
	base.Engine.FaultBudget = 30_000

	ref, err := Execute(context.Background(), c, faults, PlanRoundRobin(base, len(faults), shards), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Interrupted {
		t.Fatal("reference run reported interrupted")
	}

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	var res *Result
	rounds := 0
	for cancelAfter := int64(3); ; cancelAfter += 3 {
		if rounds++; rounds > 200 {
			t.Fatal("sharded campaign made no progress across 200 interrupted rounds")
		}
		ctx, cancel := context.WithCancel(context.Background())
		cfg := base
		cfg.CheckpointPath = ckpt
		cfg.CheckpointEvery = time.Nanosecond
		cfg.Resume = true
		cfg.FS = nosyncFS
		var attempts atomic.Int64
		cfg.Hook = func(i int, f fault.Fault) {
			if attempts.Add(1) >= cancelAfter {
				cancel()
			}
		}
		res, err = Execute(ctx, c, faults, PlanRoundRobin(cfg, len(faults), shards), nil)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.Interrupted {
			continue
		}
		break
	}
	if rounds < 2 {
		t.Fatalf("only %d rounds ran; interruption path not exercised", rounds)
	}
	t.Logf("sharded run completed after %d interrupted rounds", rounds-1)
	if !reflect.DeepEqual(res.Outcomes, ref.Outcomes) {
		t.Error("resumed sharded outcomes diverge from uninterrupted reference")
	}
	if !reflect.DeepEqual(res.Stats, ref.Stats) {
		t.Errorf("resumed sharded stats %+v != reference %+v", res.Stats, ref.Stats)
	}
	// Finished shards clean their checkpoints up.
	for _, m := range []string{ckpt, ckpt + ".shard0-of-2", ckpt + ".shard1-of-2"} {
		if _, err := os.Stat(m); err == nil {
			t.Errorf("finished sharded campaign left %s behind", m)
		}
	}
}

// TestRunShardedCrashIsolation: a panic inside one shard's fault search
// surfaces as a Crashed outcome at the right canonical index without
// taking down sibling shards.
func TestRunShardedCrashIsolation(t *testing.T) {
	c := synthC(t, 9, 12)
	faults := fault.CollapsedUniverse(c)[:30]
	const crashAt = 7
	var fired atomic.Bool
	res, err := Execute(context.Background(), c, faults, PlanRoundRobin(Config{
		Engine: engineCfg(),
		Hook: func(i int, f fault.Fault) {
			if i == crashAt && fired.CompareAndSwap(false, true) {
				panic("injected shard crash")
			}
		},
	}, len(faults), 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[crashAt] != atpg.Crashed {
		t.Fatalf("outcome[%d] = %v, want crashed", crashAt, res.Outcomes[crashAt])
	}
	if len(res.Crashes) != 1 || res.Crashes[0].Index != crashAt {
		t.Fatalf("crashes %+v, want one at canonical index %d", res.Crashes, crashAt)
	}
	if res.Stats.Detected == 0 {
		t.Error("no detections despite the crash being isolated to one fault")
	}
	if got := res.Stats.Detected + res.Stats.Redundant + res.Stats.Aborted + res.Stats.Crashed; got != len(faults) {
		t.Errorf("outcome sum %d != %d faults", got, len(faults))
	}
}

func TestRunShardedRejectsBadShardCount(t *testing.T) {
	c := synthC(t, 5, 3)
	faults := fault.CollapsedUniverse(c)[:4]
	for _, shards := range []int{0, -2} {
		if _, err := Execute(context.Background(), c, faults, PlanRoundRobin(Config{Engine: engineCfg()}, len(faults), shards), nil); err == nil {
			t.Errorf("shards=%d accepted", shards)
		}
	}
	// More shards than faults: the empty shards are simply skipped.
	res, err := Execute(context.Background(), c, faults, PlanRoundRobin(Config{Engine: engineCfg()}, len(faults), 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(faults) || res.Stats.Total != len(faults) {
		t.Errorf("short fault list mis-merged: %d outcomes, Total %d", len(res.Outcomes), res.Stats.Total)
	}
}
