package campaign

import (
	"context"
	"sort"

	"seqatpg/internal/atpg"
	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
)

// NormalizeForSharding forces the engine features that would make a
// fault's verdict depend on its run-mates off, logging every change:
//
//   - cross-fault test dropping and the random preprocessing phase
//     (NoFaultDrop is forced on, RandomSequences/RandomLength to zero):
//     every fault is attacked directly, and a single global
//     fault-simulation pass at the end (UpgradeAborted) replays all
//     generated tests against the still-aborted faults — the same set
//     of tests regardless of partitioning, since every test-generating
//     fault is attacked in every partitioning;
//   - search-state learning, the shared justification cache and the
//     shared total budget (Learning and SharedLearning are forced off,
//     TotalBudget to zero): all leak engine state across faults within
//     one run.
//
// Every Plan builder applies it; it is exported for the fabric
// coordinator, whose journal fingerprint binds the normalized config
// of the whole campaign.
func NormalizeForSharding(cfg Config) Config {
	e := &cfg.Engine
	e.NoFaultDrop = true
	if e.RandomSequences != 0 || e.RandomLength != 0 {
		cfg.logf("campaign: sharded run disables the random preprocessing phase (%d seqs x %d)", e.RandomSequences, e.RandomLength)
		e.RandomSequences, e.RandomLength = 0, 0
	}
	if e.SharedLearning {
		cfg.logf("campaign: sharded run disables the shared justification cache (cross-fault state)")
		e.SharedLearning = false
	}
	if e.Learning {
		cfg.logf("campaign: sharded run disables search-state learning (cross-fault state)")
		e.Learning = false
	}
	if e.TotalBudget != 0 {
		cfg.logf("campaign: sharded run ignores TotalBudget %d (not partition-invariant)", e.TotalBudget)
		e.TotalBudget = 0
	}
	return cfg
}

// MergeShardResults folds per-shard results back into original fault
// order: results[k] covers exactly the faults idxs[k] selects (nil
// entries — empty or missing shards — are skipped). This is Execute's
// merge whichever runner produced the results, in-process or fetched
// from a remote worker over the wire, which is what keeps a
// distributed campaign byte-compatible with a local sharded one.
func MergeShardResults(faults []fault.Fault, idxs [][]int, results []*Result) *Result {
	merged := &Result{
		Outcomes: make([]atpg.Outcome, len(faults)),
		Stats: atpg.Stats{
			Total:           len(faults),
			StatesTraversed: map[uint64]bool{},
		},
	}
	for k, res := range results {
		if res == nil {
			continue
		}
		for i, gi := range idxs[k] {
			merged.Outcomes[gi] = res.Outcomes[i]
		}
		merged.Tests = append(merged.Tests, res.Tests...)
		for _, cr := range res.Crashes {
			remapped := *cr
			remapped.Index = idxs[k][cr.Index]
			merged.Crashes = append(merged.Crashes, &remapped)
		}
		s := res.Stats
		merged.Stats.Detected += s.Detected
		merged.Stats.Redundant += s.Redundant
		merged.Stats.Aborted += s.Aborted
		merged.Stats.Crashed += s.Crashed
		merged.Stats.Add(s.Counters)
		for st := range s.StatesTraversed {
			merged.Stats.StatesTraversed[st] = true
		}
		merged.Interrupted = merged.Interrupted || res.Interrupted
		merged.Resumed = merged.Resumed || res.Resumed
		merged.CheckpointFailures += res.CheckpointFailures
		merged.Degraded = merged.Degraded || res.Degraded
		if res.Passes > merged.Passes {
			merged.Passes = res.Passes
		}
	}
	sort.Slice(merged.Crashes, func(i, j int) bool {
		return merged.Crashes[i].Index < merged.Crashes[j].Index
	})
	return merged
}

// UpgradeAborted is the global fault-drop pass sharding deferred:
// every generated test is fault-simulated against the still-aborted
// faults, and hits become Detected. Because NoFaultDrop made every
// test-generating fault attack directly, the set of tests — and hence
// the set of upgrades — is the same for every plan. The merge
// simulation is bookkeeping, not search, so it is not charged to
// Stats.Effort; its batches fan out over `workers` (the outcome is
// worker-count-invariant).
func UpgradeAborted(c *netlist.Circuit, faults []fault.Fault, merged *Result, workers int) error {
	var live []int
	for i, o := range merged.Outcomes {
		if o == atpg.Aborted {
			live = append(live, i)
		}
	}
	if len(live) == 0 || len(merged.Tests) == 0 {
		return nil
	}
	fs, err := fault.NewSimulator(c)
	if err != nil {
		return err
	}
	for _, seq := range merged.Tests {
		if len(live) == 0 {
			break
		}
		sub := make([]fault.Fault, len(live))
		for i, gi := range live {
			sub[i] = faults[gi]
		}
		det, err := fs.DetectsParallel(context.Background(), seq, sub, workers)
		if err != nil {
			return err
		}
		var still []int
		for i, gi := range live {
			if det[i] {
				merged.Outcomes[gi] = atpg.Detected
				merged.Stats.Aborted--
				merged.Stats.Detected++
			} else {
				still = append(still, gi)
			}
		}
		live = still
	}
	return nil
}
