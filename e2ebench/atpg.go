package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"seqatpg/internal/atpg"
	"seqatpg/internal/atpg/hitec"
	"seqatpg/internal/atpg/sest"
	"seqatpg/internal/campaign"
	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// atpgSize sizes one campaign per circuit.
type atpgSize struct {
	faults int   // seeded fault sample per circuit
	scale  int64 // per-fault budget = scale x gates
	cap    int64 // per-pass whole-run effort cap (atpg.Config.TotalBudget)
}

// Sized so a round (twelve campaigns, or six for atpg-learn) takes a
// few seconds on the reference host and carries well over 200 fault
// attempts. The cap plays the role of bench.Budget.RetimedCap: it stops
// a circuit whose faults all abort from burning its whole ladder.
var (
	suiteSize = atpgSize{faults: 30, scale: 100, cap: 600_000}
	learnSize = atpgSize{faults: 60, scale: 30, cap: 1_000_000}
	tinyATPG  = atpgSize{faults: 3, scale: 50, cap: 200_000}
)

// atpgRetries is the CLI default escalation depth.
const atpgRetries = 2

// atpgInput is one campaign of a round: a circuit and its fault sample.
type atpgInput struct {
	circ   *circuit
	faults []fault.Fault
	engine atpg.Config
}

// campaignRec is one timed campaign.Run call.
type campaignRec struct {
	in          *atpgInput
	res         *campaign.Result
	dur         time.Duration
	attempts    []time.Duration // per fault attempt: hook to next hook or pass end
	pass0       time.Duration
	retry       time.Duration
	retryFaults int
}

// atpgInputs builds the round's campaigns: every suite circuit with the
// hitec preset (atpg-suite), or the retimed circuits with sest + shared
// learning + cdcl (atpg-learn), each with a seeded fault sample.
func atpgInputs(circs []circuit, learn bool, size atpgSize, seed int64) []atpgInput {
	var out []atpgInput
	for i := range circs {
		cc := &circs[i]
		if learn && !cc.retimed {
			continue
		}
		rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		budget := size.scale * int64(cc.c.NumGates())
		ecfg := hitec.DefaultConfig(cc.flush, budget)
		if learn {
			ecfg = sest.CdclConfig(cc.flush, budget)
		}
		ecfg.TotalBudget = size.cap
		out = append(out, atpgInput{circ: cc, faults: sampleFaults(cc.universe, size.faults, rng), engine: ecfg})
	}
	return out
}

// runCampaign runs one campaign the way cmd/atpg does and times it from
// outside: pass intervals from the Config.Log pass lines, fault attempts
// from Config.Hook to the next hook or the pass end.
func runCampaign(in *atpgInput, tr *tracer, parent int) (*campaignRec, error) {
	rec := &campaignRec{in: in}
	runSpan := tr.begin("campaign.run", parent)
	var passSpan, attSpan, pass int
	var passStart, attStart time.Time
	pass = -1
	closeAttempt := func(now time.Time) {
		if !attStart.IsZero() {
			rec.attempts = append(rec.attempts, now.Sub(attStart))
			attStart = time.Time{}
			tr.end(attSpan)
		}
	}
	closePass := func(now time.Time) {
		if pass < 0 {
			return
		}
		if pass == 0 {
			rec.pass0 += now.Sub(passStart)
		} else {
			rec.retry += now.Sub(passStart)
		}
		tr.end(passSpan)
		pass = -1
	}
	ccfg := campaign.Config{
		Engine:      in.engine,
		Retries:     atpgRetries,
		FsimWorkers: 1,
		Hook: func(int, fault.Fault) {
			now := time.Now()
			closeAttempt(now)
			attStart = now
			attSpan = tr.begin("atpg.attempt", passSpan)
		},
		Log: func(format string, args ...any) {
			// "campaign: pass %d: %d faults, per-fault budget %d"
			if !strings.HasPrefix(format, "campaign: pass ") || len(args) < 2 {
				return
			}
			now := time.Now()
			closeAttempt(now)
			closePass(now)
			pass, _ = args[0].(int)
			if n, ok := args[1].(int); ok && pass > 0 {
				rec.retryFaults += n
			}
			passStart = now
			passSpan = tr.begin("campaign.pass", runSpan)
		},
	}
	t0 := time.Now()
	res, err := campaign.Run(context.Background(), in.circ.c, in.faults, ccfg)
	now := time.Now()
	closeAttempt(now)
	closePass(now)
	tr.end(runSpan)
	rec.dur = now.Sub(t0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.circ.name, err)
	}
	rec.res = res
	return rec, nil
}

func runATPG(cfg runConfig, learn bool) (*report, error) {
	size := suiteSize
	if learn {
		size = learnSize
	}
	if cfg.tiny {
		size = tinyATPG
	}
	inputs, setupM, err := setupRuns(cfg, func(tr *tracer) ([]atpgInput, setupTimes, error) {
		circs, st, err := buildSuite(tr)
		if err != nil {
			return nil, st, err
		}
		return atpgInputs(circs, learn, size, cfg.seed), st, nil
	})
	if err != nil {
		return nil, err
	}

	rep := &report{metrics: map[string]float64{}}
	var first []*campaignRec
	rs, err := runRounds(cfg, func(i int, tr *tracer, root int) (map[string]float64, error) {
		recs := make([]*campaignRec, len(inputs))
		for k := range inputs {
			rec, err := runCampaign(&inputs[k], tr, root)
			if err != nil {
				return nil, err
			}
			recs[k] = rec
		}
		if i == 0 {
			first = recs
			for _, r := range recs {
				s := r.res.Stats
				cfg.logf("  %-16s %5d gates %3d faults %4d attempts %7.0fms effort %9d det %3d red %3d abort %3d",
					r.in.circ.name, r.in.circ.c.NumGates(), s.Total, len(r.attempts), ms(r.dur), s.Effort, s.Detected, s.Redundant, s.Aborted)
			}
		} else {
			// Identical inputs must give identical verdicts and effort;
			// anything else is a failed operation.
			rep.failed += divergence(first, recs)
		}
		for _, r := range recs {
			rep.attempted += len(r.in.faults)
			rep.failed += r.res.Stats.Crashed
		}
		return atpgRoundMetrics(recs, i == 0), nil
	})
	if err != nil {
		return nil, err
	}

	// Outside the timed region: every Detected verdict of the first
	// round must be confirmed by independently fault-simulating the
	// campaign's own tests.
	for _, r := range first {
		bad, err := checkDetected(r.in.circ.c, r.in.faults, r.res.Outcomes, r.res.Tests)
		if err != nil {
			return nil, fmt.Errorf("check %s: %w", r.in.circ.name, err)
		}
		if bad > 0 {
			cfg.logf("check: %s: %d Detected verdicts not confirmed by its tests", r.in.circ.name, bad)
		}
		rep.failed += bad
	}

	merge(rep.metrics, rs.medians())
	merge(rep.metrics, setupM)
	merge(rep.metrics, rs.traceMetrics())
	return rep, nil
}

// atpgRoundMetrics reduces one round's campaigns to metrics. A job is
// one campaign.
func atpgRoundMetrics(recs []*campaignRec, firstRound bool) map[string]float64 {
	m := map[string]float64{}
	var jobs, attempts []float64
	var total, detected, redundant, aborted int
	var origT, reT time.Duration
	var origE, reE int64
	var engine time.Duration
	for _, r := range recs {
		s := r.res.Stats
		jobs = append(jobs, ms(r.dur))
		attempts = append(attempts, msAll(r.attempts)...)
		total += s.Total
		detected += s.Detected
		redundant += s.Redundant
		aborted += s.Aborted
		engine += r.dur
		if r.in.circ.retimed {
			reT += r.dur
			reE += s.Effort
		} else {
			origT += r.dur
			origE += s.Effort
		}
		m["campaign.pass0_s"] += sec(r.pass0)
		m["campaign.retry_s"] += sec(r.retry)
		m["campaign.retry_faults"] += float64(r.retryFaults)
		m["atpg.effort_gevals"] += float64(s.Effort)
		m["atpg.backtracks"] += float64(s.Backtracks)
		m["atpg.tests"] += float64(len(r.res.Tests))
		m["atpg.states_traversed"] += float64(len(s.StatesTraversed))
		m["atpg.learn_hits"] += float64(s.LearnHits)
		m["atpg.learn_prunes"] += float64(s.LearnPrunes)
		m["atpg.learned_cubes"] += float64(s.LearnedCubes)
		m["atpg.backjumps"] += float64(s.Backjumps)
		m["atpg.restarts"] += float64(s.Restarts)
	}
	m["fault_ms_p50"] = percentile(attempts, 50)
	m["fault_ms_p95"] = percentile(attempts, 95)
	m["fe_pct"] = 100 * ratio(float64(detected+redundant), float64(total))
	m["fc_pct"] = 100 * ratio(float64(detected), float64(total))
	m["job_ms_p50"] = percentile(jobs, 50)
	m["job_ms_p95"] = percentile(jobs, 95)
	noCacheLatency(m, jobs, firstRound)
	m["atpg.gevals_per_s"] = ratio(m["atpg.effort_gevals"], sec(engine))
	m["atpg.orig_s"] = sec(origT)
	m["atpg.retimed_s"] = sec(reT)
	m["atpg.retimed_over_orig_s"] = ratio(sec(reT), sec(origT))
	m["atpg.retimed_over_orig_effort"] = ratio(float64(reE), float64(origE))
	m["atpg.abort_frac"] = ratio(float64(aborted), float64(total))
	return m
}

// divergence counts the verdicts (plus one per effort mismatch) in
// which a repeated round differs from the first.
func divergence(first, recs []*campaignRec) int {
	n := 0
	for k, r := range recs {
		a, b := first[k].res, r.res
		if a.Stats.Effort != b.Stats.Effort {
			n++
		}
		for i := range a.Outcomes {
			if a.Outcomes[i] != b.Outcomes[i] {
				n++
			}
		}
	}
	return n
}

// checkDetected fault-simulates tests on a fresh simulator and returns
// how many faults carry a Detected verdict that no test detects.
func checkDetected(c *netlist.Circuit, faults []fault.Fault, outcomes []atpg.Outcome, tests [][][]sim.Val) (int, error) {
	var pending []fault.Fault
	for i, o := range outcomes {
		if o == atpg.Detected {
			pending = append(pending, faults[i])
		}
	}
	if len(pending) == 0 {
		return 0, nil
	}
	fs, err := fault.NewSimulator(c)
	if err != nil {
		return 0, err
	}
	for _, seq := range tests {
		det, err := fs.DetectsParallel(context.Background(), seq, pending, 1)
		if err != nil {
			return 0, err
		}
		live := pending[:0]
		for k, d := range det {
			if !d {
				live = append(live, pending[k])
			}
		}
		pending = live
		if len(pending) == 0 {
			break
		}
	}
	return len(pending), nil
}
