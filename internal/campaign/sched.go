package campaign

import (
	"fmt"
	"sort"

	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/predict"
)

// SchedConfig tunes testability-aware scheduling. All of it obeys the
// predict package's soundness rule: scheduling may reorder faults and
// shape budgets, never decide verdicts — a scheduled plan's outcomes
// are the same as an unscheduled normalized run's, pinned by tests.
//
// None of these knobs enter the checkpoint fingerprint. What the
// fingerprint binds is what actually executes per queue: the engine
// config and the exact fault sublist. A resume recomputes the plan
// (feature extraction is deterministic) and arrives at the same
// queues; resuming with a predictor that plans differently is rejected
// loudly as a checkpoint mismatch, never silently re-partitioned.
type SchedConfig struct {
	// Predictor scores faults; nil selects predict.Default().
	Predictor predict.Predictor
	// WithDensity feeds the per-circuit valid-state-density signal
	// (bounded BDD reachability, graceful fallback on blow-up) into
	// the predictor.
	WithDensity bool
	// RungBudgets starts each fault at the ladder rung its predicted
	// cost calls for, instead of making every hard fault climb from
	// the bottom: a fault predicted to need 4x the base budget runs
	// its first attack at 4x and keeps the remaining escalation
	// passes. The final per-fault budget is unchanged and deterministic
	// search is truncation-monotone, so verdicts and generated tests
	// are identical — only the charged effort spent discovering "too
	// small" on the low rungs disappears. Off, scheduling is a pure
	// reordering and even the effort counters stay byte-identical.
	RungBudgets bool
}

// PlanScheduled builds the testability-aware plan: faults are scored by
// the predictor, ordered easy-first, and predicted-hard faults are
// routed to separate big-budget queues that run concurrently, so a
// pathological fault can no longer serialize a whole campaign behind
// it. Queue q holds the faults planned at ladder rung q, each queue
// ordered by ascending score, stable on index; a predicted-hard fault
// left at rung 0 (rung budgets off, or no retries to skip) goes to
// queue 1. With rung budgets queue q runs the campaign's pass-q config
// with the remaining escalation passes, so every fault's final budget
// matches the unscheduled ladder's exactly; every other queue runs the
// base config.
func PlanScheduled(c *netlist.Circuit, faults []fault.Fault, cfg Config, sched SchedConfig) (Plan, error) {
	cfg = NormalizeForSharding(cfg)
	fs, err := predict.Extract(c, faults, predict.Options{
		WithDensity: sched.WithDensity,
		FlushCycles: cfg.Engine.FlushCycles,
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: feature extraction: %w", err)
	}
	maxRung := 0
	if sched.RungBudgets {
		maxRung = cfg.Retries
	}
	pp := predict.NewPlan(fs, sched.Predictor, cfg.Engine.FaultBudget, maxRung)

	idxs := [][]int{nil}
	for i, rung := range pp.Rungs {
		q := rung
		if q == 0 && pp.Hard[i] {
			q = 1
		}
		for len(idxs) <= q {
			idxs = append(idxs, nil)
		}
		idxs[q] = append(idxs[q], i)
	}
	plan := make(Plan, len(idxs))
	for q, ix := range idxs {
		sort.SliceStable(ix, func(a, b int) bool { return pp.Scores[ix[a]] < pp.Scores[ix[b]] })
		qcfg := cfg
		if q <= maxRung {
			qcfg.Engine = cfg.passConfig(q)
			qcfg.Retries = cfg.Retries - q
		}
		plan[q] = Partition{
			Indices: ix,
			Config:  qcfg,
			Suffix:  fmt.Sprintf(".schedq%d-of-%d", q, len(idxs)),
			Name:    fmt.Sprintf("queue %d/%d", q, len(idxs)),
		}
	}
	logQueues(cfg, fs, pp, idxs)
	return plan, nil
}

func logQueues(cfg Config, fs *predict.FeatureSet, plan *predict.Plan, idxs [][]int) {
	if cfg.Log == nil {
		return
	}
	hard := 0
	for _, h := range plan.Hard {
		if h {
			hard++
		}
	}
	density := "unknown"
	if fs.Density.Known {
		density = fmt.Sprintf("%.3g", fs.Density.Value)
	}
	cfg.logf("campaign: scheduling %d faults with predictor %s: %d predicted hard, %d queue(s), density %s, scoap converged %v",
		len(plan.Scores), plan.Predictor, hard, len(idxs), density, fs.SCOAPConverged)
	for q, ix := range idxs {
		if len(ix) > 0 {
			cfg.logf("campaign: queue %d: %d faults", q, len(ix))
		}
	}
}
