package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (see MEASURING.md for what each means where the
// workload has no cache or no per-fault search).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"fault_ms_p50", "ms"},
	{"fault_ms_p95", "ms"},
	{"fe_pct", "%"},
	{"fc_pct", "%"},
	{"job_ms_p50", "ms"},
	{"job_ms_p95", "ms"},
	{"cold_ms_p50", "ms"},
	{"hit_ms_p50", "ms"},
	{"max_rss_mb", "MB"},
}

// spanNames is the fixed set of spans the traced run reports self time
// for; a span a workload never opens reads 0.
var spanNames = []string{
	"round",
	"setup.synth", "setup.retime", "setup.universe", "setup.inputs",
	"campaign.run", "campaign.pass", "atpg.attempt",
	"fault.detects",
	"client.job", "http.submit", "http.poll", "http.fetch",
	"service.prepare", "service.queue", "service.run",
}

// perLayer are the single-layer metrics, reported by the traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"failed_frac", "fraction"},
		{"setup.synth_s", "s"},
		{"setup.retime_s", "s"},
		{"setup.universe_s", "s"},
		{"campaign.pass0_s", "s"},
		{"campaign.retry_s", "s"},
		{"campaign.retry_faults", "count"},
		{"campaign.checkpoint_writes", "count"},
		{"atpg.effort_gevals", "count"},
		{"atpg.gevals_per_s", "1/s"},
		{"atpg.backtracks", "count"},
		{"atpg.orig_s", "s"},
		{"atpg.retimed_s", "s"},
		{"atpg.retimed_over_orig_s", "ratio"},
		{"atpg.retimed_over_orig_effort", "ratio"},
		{"atpg.abort_frac", "fraction"},
		{"atpg.tests", "count"},
		{"atpg.states_traversed", "count"},
		{"atpg.learn_hits", "count"},
		{"atpg.learn_prunes", "count"},
		{"atpg.learned_cubes", "count"},
		{"atpg.backjumps", "count"},
		{"atpg.restarts", "count"},
		{"fault.calls", "count"},
		{"fault.call_ms_p50", "ms"},
		{"fault.call_ms_p95", "ms"},
		{"fault.batches", "count"},
		{"fault.frames", "count"},
		{"fault.events", "count"},
		{"fault.gate_evals", "count"},
		{"fault.avoided_frac", "fraction"},
		{"fault.fallbacks", "count"},
		{"fault.early_exits", "count"},
		{"fault.gevals_per_s", "1/s"},
		{"service.prepare_ms_p50", "ms"},
		{"service.submit_ms_p50", "ms"},
		{"service.queue_wait_ms_p50", "ms"},
		{"service.queue_wait_ms_p95", "ms"},
		{"service.run_ms_p50", "ms"},
		{"service.run_ms_p95", "ms"},
		{"service.polls", "count"},
		{"service.rejected", "count"},
		{"service.failed", "count"},
		{"service.checkpoint_writes", "count"},
		{"rescache.hits", "count"},
		{"rescache.misses", "count"},
		{"rescache.hit_rate", "fraction"},
		{"rescache.stored", "count"},
		{"rescache.evictions", "count"},
		{"rescache.bytes", "B"},
		{"rescache.quarantined", "count"},
	}
	for _, n := range spanNames {
		defs = append(defs, metricDef{"self." + n + "_s", "s"})
	}
	return append(defs,
		metricDef{"trace.unattributed_frac", "fraction"},
		metricDef{"trace.overhead_s", "s"},
		metricDef{"trace.spans", "count"},
	)
}()

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ms and sec convert durations to the reported units.
func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func sec(d time.Duration) float64 { return d.Seconds() }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// noCacheLatency fills cold_ms_p50 and hit_ms_p50 for a workload
// without a result cache. Every job is computed, so the cold latency is
// the job latency of every round; the hit latency is that of a repeated
// identical request, a job of any round after the first.
func noCacheLatency(m map[string]float64, jobs []float64, firstRound bool) {
	m["cold_ms_p50"] = percentile(jobs, 50)
	if !firstRound {
		m["hit_ms_p50"] = percentile(jobs, 50)
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// roundSet collects one run's rounds: each round yields a metric map,
// and the run reports the per-metric median, so one disturbed round
// cannot move the result.
type roundSet struct {
	untraced, traced []map[string]float64
	spans            [][]span // per traced round
}

func (r *roundSet) add(m map[string]float64, traced bool, spans []span) {
	if traced {
		r.traced = append(r.traced, m)
		r.spans = append(r.spans, spans)
	} else {
		r.untraced = append(r.untraced, m)
	}
}

// medians folds the rounds into one metric map: per-key medians over
// the untraced rounds (over the traced ones when there are none).
func (r *roundSet) medians() map[string]float64 {
	rounds := r.untraced
	if len(rounds) == 0 {
		rounds = r.traced
	}
	vals := map[string][]float64{}
	for _, m := range rounds {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// traceMetrics derives the per-span self times (medians over the traced
// rounds), the share of each traced round no layer span covers, and the
// tracing overhead: median traced round wall time minus median
// untraced round wall time.
func (r *roundSet) traceMetrics() map[string]float64 {
	out := map[string]float64{}
	self := map[string][]float64{}
	var unattr, walls, spans []float64
	for i, sp := range r.spans {
		st := selfTimes(sp)
		for n, d := range st {
			self[n] = append(self[n], sec(d))
		}
		unattr = append(unattr, ratio(sec(st["round"]), r.traced[i]["wall_s"]))
		walls = append(walls, r.traced[i]["wall_s"])
		spans = append(spans, float64(len(sp)))
	}
	for n, v := range self {
		out["self."+n+"_s"] = median(v)
	}
	var base []float64
	for _, m := range r.untraced {
		base = append(base, m["wall_s"])
	}
	out["trace.unattributed_frac"] = median(unattr)
	if len(base) > 0 && len(walls) > 0 {
		out["trace.overhead_s"] = median(walls) - median(base)
	}
	out["trace.spans"] = median(spans)
	return out
}
