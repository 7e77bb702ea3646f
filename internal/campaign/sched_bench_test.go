package campaign

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/predict"
	"seqatpg/internal/retime"
)

// BenchmarkSched measures what testability-aware scheduling buys on the
// retimed benchmark (the hard half of the original/retimed pair), in
// hardware-independent effort units so the derived numbers are stable
// across machines and CI runs.
//
// Per-fault charged effort is measured once by running each fault alone
// through the retry ladder — the normalized campaign does no fault
// dropping, so a single-fault run charges exactly what the fault costs
// inside the full campaign. Those efforts feed a queueing model:
// within a queue faults complete sequentially (latency = prefix sum),
// queues run concurrently (makespan = heaviest queue). Three variants:
//
//	unscheduled  canonical fault order, one queue — the baseline.
//	easyfirst    one queue ordered by predicted score — no hard queue;
//	             a pure reordering, so the makespan is unchanged and
//	             only the latency distribution moves.
//	hardqueue    the PlanScheduled plan: per-rung queues running
//	             concurrently, each starting the ladder at its rung.
//
// Reported metrics (all /op suffixed by the harness):
//
//	makespan-evals     modeled campaign makespan in gate evaluations
//	lat-p50/p95/max    modeled per-fault completion percentiles
//	gate-evals         the real run's charged effort (ladder identity:
//	                   easyfirst must equal unscheduled exactly)
//	verdict-match      1 if the real run's outcomes equal the baseline's
//	spearman-x1000     rank correlation of predicted score vs measured
//	                   effort, x1000 (prediction quality, not a knob)
func BenchmarkSched(b *testing.B) {
	c, flush := retimedBench(b)
	faults := fault.CollapsedUniverse(c)
	if len(faults) > 48 {
		faults = faults[:48]
	}
	// The base budget sits below the hardest faults' predicted cost so
	// the plan actually exercises the hard queues; the ladder's final
	// budget (base << retries) still completes the campaign.
	cfg := Config{Engine: engineCfg(), Retries: 2, FsimWorkers: 1}
	cfg.Engine.FaultBudget = 5_000
	cfg.Engine.FlushCycles = flush

	fs, err := predict.Extract(c, faults, predict.Options{FlushCycles: flush})
	if err != nil {
		b.Fatal(err)
	}
	plan := predict.NewPlan(fs, nil, cfg.Engine.FaultBudget, cfg.Retries)
	queues, err := PlanScheduled(c, faults, cfg, SchedConfig{RungBudgets: true})
	if err != nil {
		b.Fatal(err)
	}
	if nq := len(queues); nq < 2 {
		b.Fatalf("plan routed every fault to one queue (%d queues); the hardqueue variant would be vacuous", nq)
	}

	// Measured per-fault ladder efforts: from rung 0 for everyone, and
	// from each fault's planned rung for the hardqueue variant.
	base := make([]int64, len(faults))
	for i, f := range faults {
		base[i] = ladderEffort(b, c, f, cfg)
	}
	rung := make([]int64, len(faults))
	for _, q := range queues {
		for _, i := range q.Indices {
			rung[i] = ladderEffort(b, c, faults[i], q.Config)
		}
	}

	canonical := make([]int, len(faults))
	easy := make([]int, len(faults))
	for i := range faults {
		canonical[i] = i
		easy[i] = i
	}
	sort.SliceStable(easy, func(a, b int) bool {
		if plan.Scores[easy[a]] != plan.Scores[easy[b]] {
			return plan.Scores[easy[a]] < plan.Scores[easy[b]]
		}
		return easy[a] < easy[b]
	})
	sp := spearmanX1000(plan.Scores, base)

	ref, err := Execute(context.Background(), c, faults, PlanRoundRobin(cfg, len(faults), 1), nil)
	if err != nil {
		b.Fatal(err)
	}

	report := func(b *testing.B, queues [][]int, efforts []int64, res *Result) {
		makespan, lat := queueModel(queues, efforts)
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		n := len(lat)
		b.ReportMetric(float64(makespan), "makespan-evals/op")
		b.ReportMetric(float64(lat[(n-1)*50/100]), "lat-p50-evals/op")
		b.ReportMetric(float64(lat[(n-1)*95/100]), "lat-p95-evals/op")
		b.ReportMetric(float64(lat[n-1]), "lat-max-evals/op")
		b.ReportMetric(float64(res.Stats.Effort), "gate-evals/op")
		b.ReportMetric(float64(res.Stats.Detected), "detected/op")
		b.ReportMetric(float64(res.Stats.Aborted), "aborted/op")
		match := 0.0
		if reflect.DeepEqual(res.Outcomes, ref.Outcomes) {
			match = 1
		}
		b.ReportMetric(match, "verdict-match/op")
		b.ReportMetric(sp, "spearman-x1000/op")
	}

	b.Run("retimed/unscheduled", func(b *testing.B) {
		var res *Result
		for i := 0; i < b.N; i++ {
			res, err = Execute(context.Background(), c, faults, PlanRoundRobin(cfg, len(faults), 1), nil)
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, [][]int{canonical}, base, res)
	})
	b.Run("retimed/easyfirst", func(b *testing.B) {
		var res *Result
		for i := 0; i < b.N; i++ {
			// A pure reordering: a scheduled plan without rung budgets keeps
			// even the charged effort byte-identical to the baseline.
			res, err = runScheduled(context.Background(), c, faults, cfg, SchedConfig{})
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, [][]int{easy}, base, res)
	})
	b.Run("retimed/hardqueue", func(b *testing.B) {
		var res *Result
		for i := 0; i < b.N; i++ {
			res, err = runScheduled(context.Background(), c, faults, cfg, SchedConfig{RungBudgets: true})
			if err != nil {
				b.Fatal(err)
			}
		}
		report(b, queues.Indices(), rung, res)
	})
}

func retimedBench(b *testing.B) (*netlist.Circuit, int) {
	b.Helper()
	orig := synthC(b, 9, 12)
	re, err := retime.Backward(orig, netlist.DefaultLibrary(), 2)
	if err != nil {
		b.Fatal(err)
	}
	return re.Circuit, re.FlushCycles
}

// ladderEffort charges fault f's full retry ladder under cfg.
func ladderEffort(b *testing.B, c *netlist.Circuit, f fault.Fault, cfg Config) int64 {
	b.Helper()
	res, err := Execute(context.Background(), c, []fault.Fault{f}, PlanRoundRobin(cfg, 1, 1), nil)
	if err != nil {
		b.Fatal(err)
	}
	return res.Stats.Effort
}

// queueModel plays the partition through the effort-unit queueing
// model: queues run concurrently, faults within a queue sequentially.
func queueModel(queues [][]int, efforts []int64) (makespan int64, lat []int64) {
	for _, q := range queues {
		var t int64
		for _, i := range q {
			t += efforts[i]
			lat = append(lat, t)
		}
		if t > makespan {
			makespan = t
		}
	}
	return makespan, lat
}

// spearmanX1000 is the Spearman rank correlation (average ranks on
// ties) of predicted score against measured effort, scaled x1000.
func spearmanX1000(scores []float64, efforts []int64) float64 {
	n := len(scores)
	if n < 2 {
		return 0
	}
	effF := make([]float64, n)
	for i, e := range efforts {
		effF[i] = float64(e)
	}
	ra, rb := ranks(scores), ranks(effF)
	var ma, mb float64
	for i := 0; i < n; i++ {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return 1000 * cov / (math.Sqrt(va) * math.Sqrt(vb))
}

func ranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j) / 2
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}
