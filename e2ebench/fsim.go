package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// fsimSize sizes the random-pattern grading of one circuit.
type fsimSize struct {
	seqs, cycles int
}

var (
	gradeSize = fsimSize{seqs: 24, cycles: 32}
	tinyFsim  = fsimSize{seqs: 2, cycles: 8}
)

// widthAuto is the value of fault.WidthAuto, cmd/fsim's default width.
const widthAuto = -1

// productionSimulator builds a simulator at cmd/fsim's default setting.
// The width knob is set by field name, so the benchmark still builds
// (and measures the one remaining kernel) once the knob is removed.
func productionSimulator(c *netlist.Circuit) (*fault.Simulator, error) {
	fs, err := fault.NewSimulator(c)
	if err != nil {
		return nil, err
	}
	if f := reflect.ValueOf(fs).Elem().FieldByName("Width"); f.IsValid() && f.CanSet() && f.Kind() == reflect.Int {
		f.SetInt(widthAuto)
	}
	return fs, nil
}

// gradeInput is one circuit's grading job: its full collapsed universe
// against seeded random sequences (reset flush, then random vectors).
type gradeInput struct {
	circ *circuit
	seqs [][][]sim.Val
}

func randomSequences(cc *circuit, size fsimSize, rng *rand.Rand) [][][]sim.Val {
	reset := -1
	for i, id := range cc.c.PIs {
		if id == cc.c.ResetPI {
			reset = i
		}
	}
	out := make([][][]sim.Val, size.seqs)
	for s := range out {
		var seq [][]sim.Val
		for k := 0; k < cc.flush; k++ {
			vec := make([]sim.Val, len(cc.c.PIs))
			if reset >= 0 {
				vec[reset] = sim.V1
			}
			seq = append(seq, vec)
		}
		for k := 0; k < size.cycles; k++ {
			vec := make([]sim.Val, len(cc.c.PIs))
			for i := range vec {
				vec[i] = sim.Val(rng.Intn(2))
			}
			if reset >= 0 {
				vec[reset] = sim.V0
			}
			seq = append(seq, vec)
		}
		out[s] = seq
	}
	return out
}

// gradeRec is one circuit's grading in a round.
type gradeRec struct {
	calls    []time.Duration
	dets     [][]bool // per sequence
	detected int
	stats    fault.Stats
}

// gradeRound grades the whole suite sequence-major: job s grades
// sequence s of every circuit, one call per circuit, so every job does a
// like share of the round and the job percentiles do not hinge on which
// circuit sits in the middle of the size order. The simulators are built
// at the start of the round, outside the jobs.
func gradeRound(inputs []gradeInput, workers int, tr *tracer, parent int) ([]*gradeRec, []time.Duration, error) {
	sims := make([]*fault.Simulator, len(inputs))
	recs := make([]*gradeRec, len(inputs))
	detected := make([][]bool, len(inputs))
	for k := range inputs {
		fs, err := productionSimulator(inputs[k].circ.c)
		if err != nil {
			return nil, nil, err
		}
		sims[k] = fs
		recs[k] = &gradeRec{}
		detected[k] = make([]bool, len(inputs[k].circ.universe))
	}
	var jobs []time.Duration
	for s := range inputs[0].seqs {
		t0 := time.Now()
		for k := range inputs {
			in, rec := &inputs[k], recs[k]
			sp := tr.begin("fault.detects", parent)
			c0 := time.Now()
			det, err := sims[k].DetectsParallel(context.Background(), in.seqs[s], in.circ.universe, workers)
			rec.calls = append(rec.calls, time.Since(c0))
			tr.end(sp)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", in.circ.name, err)
			}
			for i, d := range det {
				detected[k][i] = detected[k][i] || d
			}
			rec.dets = append(rec.dets, det)
		}
		jobs = append(jobs, time.Since(t0))
	}
	for k, rec := range recs {
		rec.stats = sims[k].Stats()
		rec.detected = fault.Summarize(detected[k]).Detected
	}
	return recs, jobs, nil
}

func runFsim(cfg runConfig) (*report, error) {
	size := gradeSize
	if cfg.tiny {
		size = tinyFsim
	}
	inputs, setupM, err := setupRuns(cfg, func(tr *tracer) ([]gradeInput, setupTimes, error) {
		circs, st, err := buildSuite(tr)
		if err != nil {
			return nil, st, err
		}
		sp := tr.begin("setup.inputs", 0)
		defer tr.end(sp)
		out := make([]gradeInput, len(circs))
		for i := range circs {
			rng := rand.New(rand.NewSource(cfg.seed*104729 + int64(i)))
			out[i] = gradeInput{circ: &circs[i], seqs: randomSequences(&circs[i], size, rng)}
		}
		return out, st, nil
	})
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)

	rep := &report{metrics: map[string]float64{}}
	var first []*gradeRec
	rs, err := runRounds(cfg, func(i int, tr *tracer, root int) (map[string]float64, error) {
		recs, jobs, err := gradeRound(inputs, workers, tr, root)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			rep.attempted += len(r.calls)
		}
		if i == 0 {
			first = recs
		} else {
			for k, r := range recs {
				for s := range r.dets {
					if !equalBools(r.dets[s], first[k].dets[s]) {
						rep.failed++
					}
				}
			}
		}
		return fsimRoundMetrics(inputs, recs, jobs, i == 0), nil
	})
	if err != nil {
		return nil, err
	}

	// Outside the timed region: re-grade the first and last sequence of
	// every circuit on a narrow single-worker simulator and require the
	// same verdicts as the production setting.
	for k := range inputs {
		bad, err := checkGrading(&inputs[k], first[k])
		if err != nil {
			return nil, err
		}
		if bad > 0 {
			cfg.logf("check: %s: %d sequences graded differently by the reference", inputs[k].circ.name, bad)
		}
		rep.failed += bad
	}

	merge(rep.metrics, rs.medians())
	merge(rep.metrics, setupM)
	merge(rep.metrics, rs.traceMetrics())
	return rep, nil
}

// checkGrading re-simulates a sample of one circuit's sequences with
// the serial narrow kernel and counts sequences whose verdicts differ.
func checkGrading(in *gradeInput, rec *gradeRec) (int, error) {
	fs, err := fault.NewSimulator(in.circ.c)
	if err != nil {
		return 0, err
	}
	bad := 0
	for _, s := range []int{0, len(in.seqs) - 1} {
		det, err := fs.Detects(in.seqs[s], in.circ.universe)
		if err != nil {
			return 0, err
		}
		if !equalBools(det, rec.dets[s]) {
			bad++
		}
	}
	return bad, nil
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fsimRoundMetrics reduces one grading round. A job is one sequence
// graded on every circuit; a fault's time is its share of the call that
// graded it.
func fsimRoundMetrics(inputs []gradeInput, recs []*gradeRec, jobDurs []time.Duration, firstRound bool) map[string]float64 {
	m := map[string]float64{}
	var perFault, calls []float64
	jobs := msAll(jobDurs)
	var total, detected int
	var st fault.Stats
	var callTime time.Duration
	for k, r := range recs {
		n := float64(len(inputs[k].circ.universe))
		for _, c := range r.calls {
			calls = append(calls, ms(c))
			perFault = append(perFault, ms(c)/n)
			callTime += c
		}
		total += len(inputs[k].circ.universe)
		detected += r.detected
		st.Batches += r.stats.Batches
		st.Frames += r.stats.Frames
		st.Events += r.stats.Events
		st.GateEvals += r.stats.GateEvals
		st.GateEvalsAvoided += r.stats.GateEvalsAvoided
		st.Fallbacks += r.stats.Fallbacks
		st.EarlyExits += r.stats.EarlyExits
	}
	m["fault_ms_p50"] = percentile(perFault, 50)
	m["fault_ms_p95"] = percentile(perFault, 95)
	// Grading proves no fault redundant, so efficiency equals coverage.
	m["fc_pct"] = 100 * ratio(float64(detected), float64(total))
	m["fe_pct"] = m["fc_pct"]
	m["job_ms_p50"] = percentile(jobs, 50)
	m["job_ms_p95"] = percentile(jobs, 95)
	noCacheLatency(m, jobs, firstRound)
	m["fault.calls"] = float64(len(calls))
	m["fault.call_ms_p50"] = percentile(calls, 50)
	m["fault.call_ms_p95"] = percentile(calls, 95)
	m["fault.batches"] = float64(st.Batches)
	m["fault.frames"] = float64(st.Frames)
	m["fault.events"] = float64(st.Events)
	m["fault.gate_evals"] = float64(st.GateEvals)
	m["fault.avoided_frac"] = ratio(float64(st.GateEvalsAvoided), float64(st.GateEvals+st.GateEvalsAvoided))
	m["fault.fallbacks"] = float64(st.Fallbacks)
	m["fault.early_exits"] = float64(st.EarlyExits)
	m["fault.gevals_per_s"] = ratio(float64(st.GateEvals), sec(callTime))
	return m
}
