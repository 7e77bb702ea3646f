package campaign

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"seqatpg/internal/atpg"
	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
)

// RunSharded executes a campaign with fault-level parallelism: the
// fault list is partitioned round-robin across `shards` workers, each
// worker runs an independent engine (its own retry ladder, crash
// isolation and — when CheckpointPath is set — its own fingerprinted
// per-shard checkpoint), and the per-shard results are merged back in
// canonical fault-list order.
//
// Determinism is the design constraint: the detected/aborted/redundant
// verdict of every fault must not depend on the shard count, or
// parallel runs would be irreproducible. Two engine features make a
// fault's verdict depend on which other faults share its run, so
// sharded mode normalizes them away (logging each change):
//
//   - cross-fault test dropping and the random preprocessing phase
//     (NoFaultDrop is forced on, RandomSequences/RandomLength to zero):
//     every fault is attacked directly, and a single global
//     fault-simulation pass at the end replays all generated tests
//     against the still-aborted faults — the same set of tests
//     regardless of partitioning, since every test-generating fault is
//     attacked in every partitioning;
//   - search-state learning and the shared total budget (Learning is
//     forced off, TotalBudget to zero): both leak engine state across
//     faults within one run.
//
// With those normalized, a fault's outcome is a pure function of
// (circuit, pass config, fault), so RunSharded with shards ∈ {1, 2, 4}
// returns identical Outcomes and Stats counters; only the order of
// Result.Tests varies with the partitioning.
//
// Checkpointing: shard k of n writes CheckpointPath + ".shard<k>-of-<n>",
// so an interrupted sharded run resumes per shard. Resuming with a
// different shard count is rejected by the per-shard fingerprints
// (each binds to its shard's exact fault sublist). Config.Hook and
// Config.OnCheckpoint are invoked concurrently from shard workers;
// Config.Log is serialized here before reaching the caller.
func RunSharded(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, cfg Config, shards int) (*Result, error) {
	if shards < 1 {
		return nil, fmt.Errorf("campaign: RunSharded with %d shards, want >= 1", shards)
	}
	cfg = NormalizeForSharding(cfg)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Serialize shard logging; the caller's Log sees one line at a time.
	if cfg.Log != nil {
		var logMu sync.Mutex
		inner := cfg.Log
		cfg.Log = func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			inner(format, args...)
		}
	}

	idxs := ShardIndices(len(faults), shards)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]*Result, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for k := 0; k < shards; k++ {
		if len(idxs[k]) == 0 {
			continue
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k], errs[k] = runShard(ctx, c, faults, cfg, idxs[k], k, shards)
			if errs[k] != nil {
				cancel() // a shard that cannot even start aborts its siblings
			}
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("campaign: shard %d/%d: %w", k, shards, err)
		}
	}

	merged := MergeShardResults(faults, idxs, results)
	if !merged.Interrupted {
		if err := UpgradeAborted(c, faults, merged, cfg.fsimWorkers()); err != nil {
			return nil, fmt.Errorf("campaign: merge fault simulation: %w", err)
		}
	}
	return merged, nil
}

// ShardIndices is the round-robin partition RunSharded (and any
// distributed dispatcher that must stay outcome-compatible with it)
// uses: shard k of n attacks faults k, k+n, k+2n, … Contiguous blocks
// would hand one shard the whole hard tail of a sorted fault list;
// interleaving balances effort without breaking determinism. Shards
// past the fault count come back empty.
func ShardIndices(n, shards int) [][]int {
	idxs := make([][]int, shards)
	for i := 0; i < n; i++ {
		k := i % shards
		idxs[k] = append(idxs[k], i)
	}
	return idxs
}

// NormalizeForSharding forces the engine features that would make a
// fault's verdict depend on its run-mates off, logging every change.
// It is exported because every runner that wants partition-invariant
// outcomes — RunSharded locally, a fabric worker attacking one shard
// of a distributed campaign — must apply the exact same normalization,
// or merged verdicts would diverge from a single-node run.
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

// runShard runs one shard's sublist through a plain campaign, with the
// hook index remapped to the original fault list and a per-shard
// checkpoint file.
func runShard(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, cfg Config, idx []int, k, shards int) (*Result, error) {
	return runPartition(ctx, c, faults, cfg, idx,
		fmt.Sprintf(".shard%d-of-%d", k, shards), fmt.Sprintf("shard %d/%d", k, shards))
}

// runPartition runs the sublist idx selects through a plain campaign:
// hook indices remapped to the original fault list, checkpoint under
// CheckpointPath + ckptSuffix, log lines prefixed with tag. It is the
// shared machinery under both the round-robin shards of RunSharded and
// the predicted-cost queues of RunScheduled.
func runPartition(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, cfg Config, idx []int, ckptSuffix, tag string) (*Result, error) {
	sub := make([]fault.Fault, len(idx))
	for i, gi := range idx {
		sub[i] = faults[gi]
	}
	scfg := cfg
	if cfg.CheckpointPath != "" {
		scfg.CheckpointPath = cfg.CheckpointPath + ckptSuffix
	}
	if cfg.Hook != nil {
		hook := cfg.Hook
		scfg.Hook = func(i int, f fault.Fault) { hook(idx[i], f) }
	}
	if cfg.Log != nil {
		log := cfg.Log
		scfg.Log = func(format string, args ...any) {
			log(tag+": "+format, args...)
		}
	}
	return Run(ctx, c, sub, scfg)
}

// MergeShardResults folds per-shard results back into original fault
// order: results[k] covers exactly the faults idxs[k] selects (nil
// entries — empty or missing shards — are skipped). This is the merge
// RunSharded applies to its in-process workers; the fabric coordinator
// applies the identical fold to results fetched over the wire, which
// is what keeps a distributed campaign byte-compatible with a local
// sharded one.
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
		merged.Stats.Unconfirmed += s.Unconfirmed
		merged.Stats.Effort += s.Effort
		merged.Stats.Backtracks += s.Backtracks
		merged.Stats.LearnHits += s.LearnHits
		merged.Stats.LearnPrunes += s.LearnPrunes
		merged.Stats.LearnedCubes += s.LearnedCubes
		merged.Stats.Backjumps += s.Backjumps
		merged.Stats.Restarts += s.Restarts
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
// the set of upgrades — is the same for every shard count. The merge
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
