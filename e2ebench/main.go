// Command e2ebench is the repository's end-to-end benchmark. It drives
// the public entry points a user reaches through the CLIs — campaign.Run
// (cmd/atpg), fault.Simulator.DetectsParallel (cmd/fsim) and an
// in-process service.Server over loopback HTTP (cmd/serve) — on the
// paper's circuit suite, times every layer from outside, checks the
// outputs, and prints the metrics named in BENCHMARK.json.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload atpg-suite --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones (from a run that
// alternates traced and untraced rounds). See MEASURING.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

// maxProcs caps the benchmark at the two busy threads of the reference
// host, so results from larger hosts stay comparable.
const maxProcs = 2

// runConfig is what one benchmark invocation asks for.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	tiny    bool // self-test sizes
	log     io.Writer
}

func (c runConfig) logf(format string, args ...any) {
	if c.log != nil {
		fmt.Fprintf(c.log, format+"\n", args...)
	}
}

// report is one workload's outcome: every metric it measured, and the
// operations it attempted and saw fail or come back unsound.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
}

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(runConfig) (*report, error)
}

var workloads = []workload{
	{"atpg-suite", func(c runConfig) (*report, error) { return runATPG(c, false) }},
	{"atpg-learn", func(c runConfig) (*report, error) { return runATPG(c, true) }},
	{"fsim-grade", runFsim},
	{"serve-mix", runServe},
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload: atpg-suite, atpg-learn, fsim-grade or serve-mix")
	seed := flag.Int64("seed", 1, "input seed; any value is accepted")
	seconds := flag.Float64("seconds", 20, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, log: os.Stderr}
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	out, err := resultLine(rep, cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	host, _ := json.Marshal(hostInfo(w.name, cfg)) // plain values always marshal
	fmt.Printf("host %s\n", host)
	fmt.Println(string(out))
	return 0
}

// hostInfo is printed with every result so a number can be traced to
// the machine and seed that produced it.
func hostInfo(name string, cfg runConfig) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// resultLine renders the final JSON line: the end-to-end metrics, or
// the per-layer ones for a traced run. A metric the workload did not
// touch reads 0.
func resultLine(rep *report, traced bool) ([]byte, error) {
	rep.metrics["max_rss_mb"] = maxRSSMB()
	rep.metrics["failed_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: rep.metrics[d.name], Unit: d.unit}
	}
	return json.Marshal(res)
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// minRounds is the fewest rounds a run makes: a traced run needs an
// untraced and a traced one, and no-cache workloads a repeat.
const minRounds = 2

// runRounds repeats one round of the workload's inputs until another
// round would overrun the time budget, and at least minRounds ran. A
// traced run traces every other round, so the untraced rounds between
// them measure the tracing overhead.
func runRounds(cfg runConfig, round func(i int, tr *tracer, root int) (map[string]float64, error)) (*roundSet, error) {
	rs := &roundSet{}
	tr := &tracer{}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration
	for i := 0; i < minRounds || time.Since(start)+last <= budget; i++ {
		traced := cfg.trace && i%2 == 1
		tr.on = traced
		// Start every round from a collected heap, so the previous
		// round's garbage is not charged to this one.
		runtime.GC()
		root := tr.begin("round", 0)
		t0 := time.Now()
		m, err := round(i, tr, root)
		last = time.Since(t0)
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		if _, ok := m["wall_s"]; !ok {
			m["wall_s"] = sec(last)
		}
		rs.add(m, traced, tr.take())
		cfg.logf("round %d: %.3fs traced=%v", i, sec(last), traced)
	}
	return rs, nil
}

// setupReps is how many times a run repeats its set-up; set-up time
// is the median.
const setupReps = 3

// setupRuns repeats a workload's setup and keeps the last result;
// setup_s and the setup.* metrics are the medians, and the spans of the
// final (traced, in a traced run) build give the setup self times.
func setupRuns[T any](cfg runConfig, build func(tr *tracer) (T, setupTimes, error)) (T, map[string]float64, error) {
	n := setupReps
	if cfg.tiny {
		n = 1
	}
	var last T
	var total, syn, ret, uni []float64
	tr := &tracer{}
	var spans []span
	for i := 0; i < n; i++ {
		tr.on = cfg.trace && i == n-1
		runtime.GC()
		t0 := time.Now()
		v, st, err := build(tr)
		if err != nil {
			return last, nil, fmt.Errorf("setup: %w", err)
		}
		total = append(total, sec(time.Since(t0)))
		syn = append(syn, sec(st.synth))
		ret = append(ret, sec(st.retime))
		uni = append(uni, sec(st.universe))
		last = v
		spans = tr.take()
	}
	m := map[string]float64{
		"setup_s":          median(total),
		"setup.synth_s":    median(syn),
		"setup.retime_s":   median(ret),
		"setup.universe_s": median(uni),
	}
	for n, d := range selfTimes(spans) {
		m["self."+n+"_s"] = sec(d)
	}
	cfg.logf("setup: %.3fs median of %d", m["setup_s"], n)
	return last, m, nil
}

// merge copies src's entries into dst.
func merge(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}
