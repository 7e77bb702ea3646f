package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"seqatpg/internal/atpg"
	"seqatpg/internal/fault"
)

// sharedCfg is engineCfg with the cross-fault justification cache on.
func sharedCfg() atpg.Config {
	cfg := engineCfg()
	cfg.Learning = true
	cfg.SharedLearning = true
	return cfg
}

// TestFingerprintIgnoresObliviousSim: the oblivious reference
// simulation is a verification mode with byte-identical results and
// effort accounting. It is engine-internal (only the atpg package's own
// tests switch it on), so no campaign config can reach the fingerprint
// through it; what this pins is the other half of the contract: the
// cache knobs, which change the search trajectory, must bind.
func TestFingerprintIgnoresObliviousSim(t *testing.T) {
	c := synthC(t, 7, 5)
	faults := fault.CollapsedUniverse(c)[:20]
	base := Config{Engine: engineCfg()}

	shared := base
	shared.Engine.Learning = true
	shared.Engine.SharedLearning = true
	if Fingerprint(c, base, faults) == Fingerprint(c, shared, faults) {
		t.Error("SharedLearning did not change the checkpoint fingerprint")
	}

	capped := shared
	capped.Engine.LearnCap = 16
	if Fingerprint(c, shared, faults) == Fingerprint(c, capped, faults) {
		t.Error("LearnCap did not change the checkpoint fingerprint")
	}
}

// TestFingerprintIgnoresCdclKnobs: the conflict-driven search is
// verdict-preserving search tuning, excluded from checkpoint identity —
// a campaign checkpointed without cdcl must resume with it on, and
// vice versa.
func TestFingerprintIgnoresCdclKnobs(t *testing.T) {
	c := synthC(t, 7, 5)
	faults := fault.CollapsedUniverse(c)[:20]
	base := Config{Engine: sharedCfg()}

	cdcl := base
	cdcl.Engine.ConflictLearning = true
	if Fingerprint(c, base, faults) != Fingerprint(c, cdcl, faults) {
		t.Error("ConflictLearning changed the checkpoint fingerprint")
	}
}

// TestFingerprintIgnoresFsimWorkers pins the contract the fault-sim
// throughput knob relies on: results and effort are invariant in
// FsimWorkers, so changing it must never invalidate a checkpoint. A machine with more cores resumes another machine's
// campaign.
func TestFingerprintIgnoresFsimWorkers(t *testing.T) {
	c := synthC(t, 7, 5)
	faults := fault.CollapsedUniverse(c)[:20]
	base := Config{Engine: engineCfg()}
	for _, workers := range []int{1, 2, 8, 64} {
		tuned := base
		tuned.FsimWorkers = workers
		if Fingerprint(c, base, faults) != Fingerprint(c, tuned, faults) {
			t.Errorf("FsimWorkers=%d changed the checkpoint fingerprint", workers)
		}
	}
}

// TestRunShardedNormalizesSharedLearning: the shared justification
// cache is cross-fault state, so sharded mode must disable it (logging
// the change) and stay shard-count-invariant when a caller asks for it.
func TestRunShardedNormalizesSharedLearning(t *testing.T) {
	c := synthC(t, 7, 5)
	faults := fault.CollapsedUniverse(c)
	if len(faults) > 40 {
		faults = faults[:40]
	}

	var logs []string
	cfg := Config{Engine: sharedCfg(), Log: func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}}

	var ref *Result
	for _, shards := range []int{1, 2, 3} {
		res, err := Execute(context.Background(), c, faults, PlanRoundRobin(cfg, len(faults), shards), nil)
		if err != nil {
			t.Fatal(err)
		}
		if shards == 1 {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.Outcomes, ref.Outcomes) {
			t.Errorf("shards=%d: outcomes diverge from shards=1", shards)
		}
	}

	found := false
	for _, line := range logs {
		if strings.Contains(line, "shared justification cache") {
			found = true
			break
		}
	}
	if !found {
		t.Error("sharded run did not log that it disabled the shared cache")
	}
}

// TestCampaignResumeExactWithSharedLearning: interrupt/resume exactness
// must hold with the shared cache enabled — the mid-pass snapshot now
// carries the cross-fault stores, and a resumed campaign must land on
// the same stats, outcomes and tests as one that was never stopped.
func TestCampaignResumeExactWithSharedLearning(t *testing.T) {
	resumeExact(t, sharedCfg())
}

// TestCampaignResumeExactWithCdcl: the same exactness with the full
// conflict-driven stack on — mid-pass snapshots now carry a populated
// learned-cube store and the cdcl effort counters, and a resumed
// campaign must replay to byte-identical stats (LearnedCubes, Backjumps
// and Restarts included).
func TestCampaignResumeExactWithCdcl(t *testing.T) {
	cfg := sharedCfg()
	cfg.ConflictLearning = true
	resumeExact(t, cfg)
}

func resumeExact(t *testing.T, eng atpg.Config) {
	c := synthC(t, 9, 12)
	faults := fault.CollapsedUniverse(c)
	if len(faults) > 50 {
		faults = faults[:50]
	}
	base := Config{Engine: eng, Retries: 1}
	base.Engine.FaultBudget = 40_000

	ref, err := Run(context.Background(), c, faults, base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Interrupted {
		t.Fatal("reference campaign reported interrupted")
	}

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	var res *Result
	rounds := 0
	for cancelAfter := 3; ; cancelAfter += 3 {
		if rounds++; rounds > 100 {
			t.Fatal("campaign made no progress across 100 interrupted rounds")
		}
		ctx, cancel := context.WithCancel(context.Background())
		cfg := base
		cfg.CheckpointPath = ckpt
		cfg.CheckpointEvery = time.Nanosecond
		cfg.Resume = true
		cfg.FS = nosyncFS
		attempts := 0
		cfg.Hook = func(i int, f fault.Fault) {
			if attempts++; attempts >= cancelAfter {
				cancel()
			}
		}
		res, err = Run(ctx, c, faults, cfg)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.Interrupted {
			continue
		}
		break
	}
	t.Logf("completed after %d interrupted rounds (hits=%d prunes=%d)",
		rounds-1, res.Stats.LearnHits, res.Stats.LearnPrunes)
	if rounds < 2 {
		t.Fatal("interruption path not exercised")
	}
	if !reflect.DeepEqual(res.Stats, ref.Stats) {
		t.Errorf("resumed stats %+v != reference %+v", res.Stats, ref.Stats)
	}
	if !reflect.DeepEqual(res.Outcomes, ref.Outcomes) {
		t.Error("resumed outcomes diverge from reference")
	}
	if !reflect.DeepEqual(res.Tests, ref.Tests) {
		t.Error("resumed tests diverge from reference")
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("finished campaign left checkpoint behind (stat err %v)", err)
	}
}
