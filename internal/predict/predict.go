package predict

import (
	"math"
	"sort"
)

// Predictor scores one fault's expected charged search effort, in gate
// evaluations, from its structural features. Implementations must be
// pure functions of the FeatureSet — the scheduler, the admission
// layer and the fabric placer all recompute scores independently and
// rely on getting identical numbers.
type Predictor interface {
	// Name identifies the predictor in logs and plan dumps.
	Name() string
	// Score estimates the gate evaluations needed to resolve fault i
	// of fs. Higher means harder; the absolute scale should be
	// comparable to engine FaultBudget values.
	Score(fs *FeatureSet, i int) float64
}

// Weights parameterizes the default structural predictor.
type Weights struct {
	// PerProbe is the evaluation cost of one search probe, as a
	// multiple of the gate count (an incremental window probe touches
	// a cone, not the whole circuit).
	PerProbe float64
	// Act scales the activation-controllability term, Obs the
	// observability-distance term: together they estimate how many
	// probes the PODEM descent needs.
	Act float64
	Obs float64
	// Seq scales the sequential-depth multiplier — each DFF between
	// the fault and the inputs multiplies the time-frame work.
	Seq float64
	// DensityExp shapes the circuit-level boost (1/density)^DensityExp
	// applied when the valid-state density is known; DensityCap bounds
	// the boost so near-empty encodings don't dominate every other
	// feature.
	DensityExp float64
	DensityCap float64
	// StaleCap bounds the activation/observability terms when the
	// SCOAP fixpoint did not converge: unconverged magnitudes are
	// upper bounds, so magnitude-sensitive terms are discounted while
	// relative order is kept.
	StaleCap float64
}

// DefaultWeights calibrates the structural predictor against the
// repo's benchmark pair (see BENCH_sched.json): ranks correlate with
// actual charged effort and the absolute scale lands in the same
// decade as engine budgets on mid-size circuits.
func DefaultWeights() Weights {
	return Weights{
		PerProbe:   0.25,
		Act:        1.0,
		Obs:        2.0,
		Seq:        0.5,
		DensityExp: 0.5,
		DensityCap: 8,
		StaleCap:   256,
	}
}

// Structural is the default predictor: a calibrated combination of
// SCOAP activation cost, observability distance, sequential depth and
// the circuit's valid-state density.
type Structural struct {
	W Weights
}

// Default returns the structural predictor with default weights.
func Default() Structural { return Structural{W: DefaultWeights()} }

func (p Structural) Name() string { return "structural" }

// Score implements Predictor.
func (p Structural) Score(fs *FeatureSet, i int) float64 {
	f := fs.Faults[i]
	w := p.W
	act := float64(f.CCAct)
	obs := float64(f.Obs)
	if !fs.SCOAPConverged && w.StaleCap > 0 {
		// Unconverged measures: trust order, discount magnitude.
		act = math.Min(act, w.StaleCap)
		obs = math.Min(obs, w.StaleCap)
	}
	probes := 1 + w.Act*act + w.Obs*obs
	seq := 1 + w.Seq*float64(f.SeqDepth)
	boost := 1.0
	if fs.Density.Known && fs.Density.Value > 0 {
		boost = math.Min(math.Pow(1/fs.Density.Value, w.DensityExp), w.DensityCap)
	}
	return w.PerProbe * float64(fs.Gates) * probes * seq * boost
}

// Plan is a scored fault list plus the scheduling decisions derived
// from it against a concrete budget ladder. The plan reorders and
// budgets; it never touches verdicts.
type Plan struct {
	Predictor string
	// Scores are the per-fault predicted gate evaluations.
	Scores []float64
	// Rungs assigns each fault its starting rung on the retry ladder:
	// rung q means "start at FaultBudget << q with the remaining
	// escalation passes", chosen as the smallest rung whose budget
	// covers the predicted cost. Rung 0 is the normal ladder start.
	Rungs []int
	// Hard marks faults whose predicted cost exceeds the base budget —
	// the ones routed to the big-budget queue so they cannot serialize
	// ahead of easy faults.
	Hard []bool
}

// NewPlan scores every fault and assigns ladder rungs for a campaign
// whose ladder starts at baseBudget and escalates 2x for maxRung
// retry passes.
func NewPlan(fs *FeatureSet, p Predictor, baseBudget int64, maxRung int) *Plan {
	if p == nil {
		p = Default()
	}
	if maxRung < 0 {
		maxRung = 0
	}
	n := len(fs.Faults)
	plan := &Plan{
		Predictor: p.Name(),
		Scores:    make([]float64, n),
		Rungs:     make([]int, n),
		Hard:      make([]bool, n),
	}
	for i := 0; i < n; i++ {
		s := p.Score(fs, i)
		plan.Scores[i] = s
		plan.Hard[i] = baseBudget > 0 && s > float64(baseBudget)
		rung := 0
		for b := baseBudget; rung < maxRung && b > 0 && s > float64(b); rung++ {
			b <<= 1
		}
		plan.Rungs[i] = rung
	}
	return plan
}

// EstimateEvals sums the plan's per-fault predictions, each clamped to
// the ladder's final budget (baseBudget << retries) — the engine never
// charges a fault more than that, so neither should the estimate.
func (p *Plan) EstimateEvals(baseBudget int64, retries int) int64 {
	var total int64
	for _, s := range p.Scores {
		ev := ClampEval(s, baseBudget, retries)
		if total > math.MaxInt64-ev {
			return math.MaxInt64
		}
		total += ev
	}
	return total
}

// ClampEval converts one predicted score into charged gate evaluations,
// clamped to [1, baseBudget << retries] — the engine never charges a
// fault more than the ladder's final budget. A baseBudget of 0 means
// unbounded search and leaves the score unclamped.
func ClampEval(score float64, baseBudget int64, retries int) int64 {
	// Converting a float at or above MaxInt64 to int64 is
	// implementation-defined; saturate explicitly.
	ev := int64(math.MaxInt64)
	if score < float64(math.MaxInt64) {
		ev = int64(score)
	}
	if ev < 1 {
		ev = 1
	}
	if cap := ladderCap(baseBudget, retries); cap > 0 && ev > cap {
		ev = cap
	}
	return ev
}

// ladderCap is baseBudget << retries saturated at MaxInt64; 0 (no
// per-fault budget) stays 0, meaning unbounded.
func ladderCap(baseBudget int64, retries int) int64 {
	if baseBudget <= 0 {
		return 0
	}
	b := baseBudget
	for i := 0; i < retries; i++ {
		if b > math.MaxInt64/2 {
			return math.MaxInt64
		}
		b <<= 1
	}
	return b
}

// BalancedIndices packs fault indices into shards bins balanced by
// predicted cost — longest-processing-time greedy: faults in
// descending score order each land in the currently lightest bin.
// Deterministic (ties break on lowest index, then lowest bin), so a
// coordinator and its workers derive identical partitions from the
// same scores. Each bin comes back in ascending fault order, the same
// intra-shard execution order a round-robin shard has.
func BalancedIndices(scores []float64, shards int) [][]int {
	if shards < 1 {
		shards = 1
	}
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] > scores[order[b]]
		}
		return order[a] < order[b]
	})
	idxs := make([][]int, shards)
	load := make([]float64, shards)
	for _, fi := range order {
		best := 0
		for k := 1; k < shards; k++ {
			if load[k] < load[best] {
				best = k
			}
		}
		idxs[best] = append(idxs[best], fi)
		load[best] += scores[fi]
	}
	for k := range idxs {
		sort.Ints(idxs[k])
	}
	return idxs
}
