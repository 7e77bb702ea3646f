package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/predict"
)

// Plan is a partitioned campaign: the fault list split into partitions
// that run as independent campaigns and merge back in canonical fault
// order. The builders — PlanRoundRobin, PlanBalanced and PlanScheduled
// — differ only in how they split the list and which config each
// partition runs with. Execute runs any plan in-process; the fabric
// coordinator dispatches the same partitions to remote workers and
// folds their results with the same MergeShardResults and
// UpgradeAborted.
//
// Determinism is the design constraint: the detected/aborted/redundant
// verdict of every fault must not depend on the plan, or parallel runs
// would be irreproducible. Every builder therefore normalizes the
// campaign config with NormalizeForSharding, and with that a fault's
// outcome is a pure function of (circuit, final budget, fault): every
// plan over the same faults returns identical Outcomes and Stats
// counters (scheduled rung budgets change charged effort only), and
// only the order of Result.Tests varies with the partitioning.
type Plan []Partition

// Partition is one independently executed slice of a Plan.
type Partition struct {
	// Indices are the partition's faults as indices into the
	// campaign's fault list, in execution order.
	Indices []int
	// Config is the normalized campaign config the partition runs with
	// (for a scheduled queue, started at its budget rung). It and the
	// sublist are what the partition's checkpoint fingerprint binds.
	Config Config
	// Suffix names the partition's checkpoint: Config.CheckpointPath +
	// Suffix. A run resumes only from checkpoints of an identical plan —
	// a different partitioning changes the sublists, which the
	// fingerprints reject.
	Suffix string
	// Name prefixes the partition's log lines and errors.
	Name string
}

// Indices returns every partition's fault indices, the layout
// MergeShardResults folds by.
func (p Plan) Indices() [][]int {
	idxs := make([][]int, len(p))
	for k, part := range p {
		idxs[k] = part.Indices
	}
	return idxs
}

// Sublist selects the partition's faults from the campaign's full
// fault list, in execution order.
func (p Partition) Sublist(faults []fault.Fault) []fault.Fault {
	sub := make([]fault.Fault, len(p.Indices))
	for i, gi := range p.Indices {
		sub[i] = faults[gi]
	}
	return sub
}

// PlanRoundRobin splits n faults over shards partitions round-robin:
// shard k attacks faults k, k+shards, k+2*shards, … Contiguous blocks
// would hand one shard the whole hard tail of a sorted fault list;
// interleaving balances effort without breaking determinism. Shards
// past the fault count come back empty; shards < 1 yields an empty
// plan, which Execute rejects.
func PlanRoundRobin(cfg Config, n, shards int) Plan {
	if shards < 1 {
		return nil
	}
	idxs := make([][]int, shards)
	for i := 0; i < n; i++ {
		idxs[i%shards] = append(idxs[i%shards], i)
	}
	return shardPlan(cfg, idxs)
}

// PlanBalanced packs faults into shards partitions balanced by their
// predicted cost scores (predict.BalancedIndices), so no shard
// collects the predicted-hard faults and becomes the straggler that
// sets the campaign makespan. Each shard runs in ascending fault order,
// as a round-robin shard does; shards < 1 yields an empty plan.
func PlanBalanced(cfg Config, scores []float64, shards int) Plan {
	if shards < 1 {
		return nil
	}
	return shardPlan(cfg, predict.BalancedIndices(scores, shards))
}

// shardPlan turns a shard partition into a plan whose shards all run
// the normalized campaign config.
func shardPlan(cfg Config, idxs [][]int) Plan {
	cfg = NormalizeForSharding(cfg)
	plan := make(Plan, len(idxs))
	for k, ix := range idxs {
		plan[k] = Partition{
			Indices: ix,
			Config:  cfg,
			Suffix:  fmt.Sprintf(".shard%d-of-%d", k, len(idxs)),
			Name:    fmt.Sprintf("shard %d/%d", k, len(idxs)),
		}
	}
	return plan
}

// Execute runs a plan in-process: every non-empty partition runs
// concurrently as a plain campaign over its sublist (its own retry
// ladder, crash isolation and, when CheckpointPath is set, its own
// fingerprinted checkpoint), a partition that cannot even start cancels
// its siblings, and the results are merged in canonical fault order.
// Unless the run was interrupted, the merge ends with the global
// fault-drop pass the normalization deferred (UpgradeAborted).
//
// Config.Hook sees indices into faults. Hook, OnCheckpoint and
// OnCheckpointFailure are invoked concurrently from partition workers;
// Log is serialized here before it reaches the caller.
func Execute(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, plan Plan) (*Result, error) {
	if len(plan) == 0 {
		return nil, errors.New("campaign: empty plan")
	}
	for _, part := range plan {
		if err := part.Config.Validate(); err != nil {
			return nil, err
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var logMu sync.Mutex
	results := make([]*Result, len(plan))
	errs := make([]error, len(plan))
	var wg sync.WaitGroup
	for k, part := range plan {
		if len(part.Indices) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[k], errs[k] = part.run(ctx, c, faults, &logMu)
			if errs[k] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", plan[k].Name, err)
		}
	}

	merged := MergeShardResults(faults, plan.Indices(), results)
	if !merged.Interrupted {
		// Every partition derives from one campaign config, so any of
		// them carries the caller's FsimWorkers.
		if err := UpgradeAborted(c, faults, merged, plan[0].Config.fsimWorkers()); err != nil {
			return nil, fmt.Errorf("campaign: merge fault simulation: %w", err)
		}
	}
	return merged, nil
}

// run executes the partition's sublist as a plain campaign: hook
// indices remapped to the full fault list, checkpoint under
// CheckpointPath + Suffix, log lines prefixed with Name and serialized
// through logMu.
func (p Partition) run(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, logMu *sync.Mutex) (*Result, error) {
	cfg := p.Config
	if cfg.CheckpointPath != "" {
		cfg.CheckpointPath += p.Suffix
	}
	if hook := cfg.Hook; hook != nil {
		cfg.Hook = func(i int, f fault.Fault) { hook(p.Indices[i], f) }
	}
	if log := cfg.Log; log != nil {
		cfg.Log = func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			log(p.Name+": "+format, args...)
		}
	}
	return Run(ctx, c, p.Sublist(faults), cfg)
}
