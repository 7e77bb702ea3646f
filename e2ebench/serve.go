package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/rescache"
	"seqatpg/internal/service"
	"seqatpg/internal/sim"
)

// serveSize sizes one serve-mix round.
type serveSize struct {
	requests  int   // jobs submitted per round, about
	maxFaults int   // max_faults of every spec
	scale     int64 // fault_budget = scale x gates
	cacheCap  int64 // rescache byte cap
}

var (
	mixSize  = serveSize{requests: 80, maxFaults: 8, scale: 30, cacheCap: 5 << 10}
	tinyMix  = serveSize{requests: 12, maxFaults: 2, scale: 10, cacheCap: 2 << 10}
	zipfSkew = 1.3
)

// Closed loop of one client: it sends its next job only after the
// previous one finished, so no job waits behind another and a cache hit
// never shares the processors with a cold run. With two clients, a hit
// that arrived during a two-thread cold run waited for a processor, and
// hit_ms_p50 spread 30-50% from run to run. One server worker with jobs
// of up to two shards keeps the busy threads at two.
const (
	serveWorkers    = 1
	checkpointEvery = 10 * time.Millisecond
	pollEvery       = 5 * time.Millisecond
	jobTimeout      = 90 * time.Second
)

// mixInput is one run's job specs and its request sequence.
type mixInput struct {
	specs    []service.Spec
	prepared []*service.Prepared
	prepare  []time.Duration
	counts   []int // spec index per request, unordered
	seed     int64
	size     serveSize
}

// serveInputs builds one job spec per suite circuit and the request
// counts: the specs rank by popularity in suite order, and rank k is
// requested in proportion to a Zipf law, (k+1)^-s, at least once. Ranks
// and counts are fixed, so every seed sends the same cold work and the
// same hits (a hit's cost grows with the netlist Submit parses); the
// seed orders the requests. Each spec is prepared once, which checks it
// and yields the fault list the result check needs.
func serveInputs(circs []circuit, size serveSize, seed int64, tr *tracer) (*mixInput, error) {
	// The scf pair is left out: one of its jobs would run for seconds
	// and turn the mix into a single-job workload.
	var pool []*circuit
	for i := range circs {
		if circs[i].fsm != "scf" {
			pool = append(pool, &circs[i])
		}
	}
	in := &mixInput{size: size}
	for d, cc := range pool {
		var b strings.Builder
		if err := netlist.Write(&b, cc.c); err != nil {
			return nil, err
		}
		// The two least popular specs run as two shards (RunSharded and
		// its UpgradeAborted pass), the rest as one, which leaves a
		// processor to serve the API during most cold runs.
		shards := 1
		if d >= len(pool)-2 {
			shards = 2
		}
		spec := service.Spec{
			Name:        fmt.Sprintf("mix-%d-%s", d, cc.name),
			Netlist:     b.String(),
			Format:      "net",
			FaultBudget: size.scale * int64(cc.c.NumGates()),
			Retries:     atpgRetries,
			MaxFaults:   size.maxFaults,
			Shards:      shards,
		}
		sp := tr.begin("service.prepare", 0)
		t0 := time.Now()
		p, err := service.Prepare(spec)
		in.prepare = append(in.prepare, time.Since(t0))
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", spec.Name, err)
		}
		in.specs = append(in.specs, spec)
		in.prepared = append(in.prepared, p)
	}
	in.counts = zipfCounts(len(in.specs), size.requests)
	in.seed = seed
	return in, nil
}

// requests returns round r's request stream: the Zipf counts shuffled
// by the seed and the round. The order decides which entries the cache
// evicts, so a run's medians cover several
// interleavings of the same traffic instead of one.
func (in *mixInput) requests(round int) []int {
	out := append([]int(nil), in.counts...)
	rng := rand.New(rand.NewSource(in.seed*1_000_003 + int64(round)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// zipfCounts returns about total requests over n specs, spec k getting
// max(1, round(total*p_k)) of them for the Zipf probabilities p_k.
func zipfCounts(n, total int) []int {
	w := make([]float64, n)
	sum := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -zipfSkew)
		sum += w[k]
	}
	var out []int
	for k := range w {
		c := max(1, int(math.Round(float64(total)*w[k]/sum)))
		for ; c > 0; c-- {
			out = append(out, k)
		}
	}
	return out
}

// jobRec is one client-side job: submit to observed terminal state.
type jobRec struct {
	spec     int
	id       string
	submit   time.Time
	done     time.Time
	submitD  time.Duration
	polls    int
	status   service.JobStatus
	httpErrs int
	err      error
}

// hit reports whether the job was answered from the result cache: a
// job that ran its campaign counted at least one fault attempt.
func (j *jobRec) hit() bool { return j.status.State == service.Done && j.status.Attempts == 0 }

// serveRound is one round's server, cache and finished jobs.
type serveRound struct {
	fs    *memFS        // the round's job store and cache
	start time.Duration // server and cache start
	wall  time.Duration // first submit to last verdict
	jobs  []*jobRec
	cache rescache.Stats
}

// The round's job store and cache directories, inside its memFS.
const (
	jobsDir  = "/serve/jobs"
	cacheDir = "/serve/cache"
)

// runServeRound starts a fresh cache and server on loopback, drives the
// request sequence with the closed-loop client, and drains the server.
func runServeRound(in *mixInput, round int, tr *tracer, root int) (*serveRound, error) {
	order := in.requests(round)
	rd := &serveRound{fs: newMemFS()}
	t0 := time.Now()
	cache, err := rescache.Open(rescache.Options{FS: rd.fs, Dir: cacheDir, CapBytes: in.size.cacheCap})
	if err != nil {
		return rd, err
	}
	srv, err := service.New(jobsDir, service.Options{
		FS: rd.fs, Workers: serveWorkers, CheckpointEvery: checkpointEvery, Cache: cache,
	})
	if err != nil {
		return rd, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(context.Background())
		return rd, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	rd.start = time.Since(t0)

	transport := &http.Transport{}
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	base := "http://" + ln.Addr().String()

	start := time.Now()
	for _, spec := range order {
		rd.jobs = append(rd.jobs, runJob(client, base, in, spec, tr, root))
	}
	rd.wall = time.Since(start)
	rd.cache = cache.Stats()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := hs.Shutdown(ctx)
	<-served
	transport.CloseIdleConnections()
	if err := srv.Close(ctx); err != nil {
		return rd, err
	}
	return rd, herr
}

// runJob submits one spec, polls until the job is terminal, then
// fetches its result and vectors as a user would.
func runJob(client *http.Client, base string, in *mixInput, spec int, tr *tracer, root int) *jobRec {
	j := &jobRec{spec: spec}
	sp := tr.begin("client.job", root)
	defer tr.end(sp)
	body, err := json.Marshal(in.specs[spec])
	if err != nil {
		j.err = err
		return j
	}
	j.submit = time.Now()
	hsp := tr.begin("http.submit", sp)
	var sub struct{ ID string }
	err = call(client, http.MethodPost, base+"/jobs", body, &sub)
	j.submitD = time.Since(j.submit)
	tr.end(hsp)
	if err != nil {
		j.httpErrs++
		j.err = err
		return j
	}
	j.id = sub.ID
	deadline := j.submit.Add(jobTimeout)
	for {
		hsp = tr.begin("http.poll", sp)
		var st service.JobStatus
		err := call(client, http.MethodGet, base+"/jobs/"+j.id, nil, &st)
		j.polls++
		tr.end(hsp)
		if err != nil {
			j.httpErrs++
			j.err = err
			return j
		}
		if st.State.Terminal() {
			j.done = time.Now()
			j.status = st
			break
		}
		if time.Now().After(deadline) {
			j.err = fmt.Errorf("job %s not finished after %v", j.id, jobTimeout)
			return j
		}
		time.Sleep(pollEvery)
	}
	if !j.hit() && !j.status.Started.IsZero() {
		tr.add("service.queue", sp, j.status.Created, j.status.Started)
		tr.add("service.run", sp, j.status.Started, j.status.Finished)
	}
	if j.status.State != service.Done {
		return j
	}
	hsp = tr.begin("http.fetch", sp)
	defer tr.end(hsp)
	for _, path := range []string{"/result", "/vectors"} {
		if err := call(client, http.MethodGet, base+"/jobs/"+j.id+path, nil, nil); err != nil {
			j.httpErrs++
			j.err = err
		}
	}
	return j
}

// call does one HTTP exchange; a non-2xx status is an error. out, when
// non-nil, receives the decoded JSON body.
func call(client *http.Client, method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// checkServe verifies a finished round outside its timed region. Every
// job must be done without HTTP errors; every job's result.json and
// vectors.vec must be byte-identical to the first cold run of its
// digest; and the vectors of each first cold run must, fault-simulated
// afresh, detect at least as many faults as its result claims. It
// returns the number of failed jobs.
func checkServe(rd *serveRound, in *mixInput) int {
	type golden struct{ result, vectors []byte }
	first := map[string]golden{}
	bad := 0
	// Jobs are in submission order, one at a time, so the first job of a
	// digest is its first cold run.
	for _, j := range rd.jobs {
		if j.err != nil || j.httpErrs > 0 || j.status.State != service.Done {
			bad++
			continue
		}
		dir := filepath.Join(jobsDir, j.id)
		res, err1 := rd.fs.ReadFile(filepath.Join(dir, "result.json"))
		vec, err2 := rd.fs.ReadFile(filepath.Join(dir, "vectors.vec"))
		if err := errors.Join(err1, err2); err != nil {
			bad++
			continue
		}
		g, seen := first[j.status.Digest]
		if seen {
			if !bytes.Equal(res, g.result) || !bytes.Equal(vec, g.vectors) {
				bad++
			}
			continue
		}
		if j.hit() {
			// With a fresh cache, a digest's first job is a cold run.
			bad++
			continue
		}
		// Unreadable vectors fail the job like vectors that detect too
		// little.
		if ok, err := vectorsDetect(in.prepared[j.spec].Circuit, in.prepared[j.spec].Faults, vec, j.status.Result); err != nil || !ok {
			bad++
			continue
		}
		first[j.status.Digest] = golden{res, vec}
	}
	return bad
}

// vectorsDetect fault-simulates a job's vectors on a fresh simulator
// and reports whether they detect at least the claimed number of faults.
func vectorsDetect(c *netlist.Circuit, faults []fault.Fault, vec []byte, sum *service.Summary) (bool, error) {
	if sum == nil {
		return false, nil
	}
	seqs, err := sim.ReadVectors(bytes.NewReader(vec), len(c.PIs))
	if err != nil {
		return false, err
	}
	fs, err := fault.NewSimulator(c)
	if err != nil {
		return false, err
	}
	detected := make([]bool, len(faults))
	for _, seq := range seqs {
		det, err := fs.DetectsParallel(context.Background(), seq, faults, 1)
		if err != nil {
			return false, err
		}
		for i, d := range det {
			detected[i] = detected[i] || d
		}
	}
	return fault.Summarize(detected).Detected >= sum.Detected, nil
}

func runServe(cfg runConfig) (*report, error) {
	size := mixSize
	if cfg.tiny {
		size = tinyMix
	}
	in, setupM, err := setupRuns(cfg, func(tr *tracer) (*mixInput, setupTimes, error) {
		circs, st, err := buildSuite(tr)
		if err != nil {
			return nil, st, err
		}
		sp := tr.begin("setup.inputs", 0)
		defer tr.end(sp)
		in, err := serveInputs(circs, size, cfg.seed, tr)
		return in, st, err
	})
	if err != nil {
		return nil, err
	}

	rep := &report{metrics: map[string]float64{}}
	var starts []float64
	coldBySpec := map[int][]float64{}
	rs, err := runRounds(cfg, func(i int, tr *tracer, root int) (map[string]float64, error) {
		rd, err := runServeRound(in, i, tr, root)
		if err != nil {
			return nil, err
		}
		bad := checkServe(rd, in)
		if bad > 0 {
			cfg.logf("check: round %d: %d failed jobs", i, bad)
		}
		rep.attempted += len(rd.jobs)
		rep.failed += bad
		starts = append(starts, sec(rd.start))
		if !tr.enabled() {
			for _, j := range rd.jobs {
				if j.err == nil && j.status.State == service.Done && !j.hit() {
					coldBySpec[j.spec] = append(coldBySpec[j.spec], ms(j.done.Sub(j.submit)))
				}
			}
		}
		m := serveRoundMetrics(rd)
		cfg.logf("  serve round %d: %d jobs, hit rate %.2f, %v evictions, hit p50 %.1fms, cold p50 %.1fms",
			i, len(rd.jobs), m["rescache.hit_rate"], m["rescache.evictions"], m["hit_ms_p50"], m["cold_ms_p50"])
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	merge(rep.metrics, rs.medians())
	merge(rep.metrics, setupM)
	merge(rep.metrics, rs.traceMetrics())
	// The server and cache start once per round; set-up is the suite
	// and inputs plus the median start.
	rep.metrics["setup_s"] += median(starts)
	// Cold latency is the median over specs of each spec's median cold
	// latency in the run. A round's own cold median hinges on which specs
	// an eviction sent back to a cold run, which the request order
	// decides; every spec runs cold at least once a round.
	var perSpec []float64
	for _, v := range coldBySpec {
		perSpec = append(perSpec, median(v))
	}
	rep.metrics["cold_ms_p50"] = median(perSpec)
	prep := msAll(in.prepare)
	rep.metrics["service.prepare_ms_p50"] = percentile(prep, 50)
	return rep, nil
}

// serveRoundMetrics reduces one round. Latencies are client-side,
// submit to observed terminal state; queue and run intervals of cold
// jobs come from their status timestamps.
func serveRoundMetrics(rd *serveRound) map[string]float64 {
	m := map[string]float64{"wall_s": sec(rd.wall)}
	var all, cold, hits, perFault, submit, queue, run []float64
	firstOf := map[string]*jobRec{}
	for _, j := range rd.jobs {
		m["service.polls"] += float64(j.polls)
		if j.err != nil || j.status.State != service.Done {
			m["service.failed"]++
			if strings.Contains(fmt.Sprint(j.err), "429") {
				m["service.rejected"]++
			}
			continue
		}
		lat := ms(j.done.Sub(j.submit))
		all = append(all, lat)
		submit = append(submit, ms(j.submitD))
		if j.hit() {
			hits = append(hits, lat)
			continue
		}
		cold = append(cold, lat)
		q := ms(j.status.Started.Sub(j.status.Created))
		r := ms(j.status.Finished.Sub(j.status.Started))
		queue = append(queue, q)
		run = append(run, r)
		perFault = append(perFault, r/float64(j.status.Attempts))
		m["service.checkpoint_writes"] += float64(j.status.CheckpointWrites)
		if _, ok := firstOf[j.status.Digest]; !ok {
			firstOf[j.status.Digest] = j
		}
	}
	m["campaign.checkpoint_writes"] = m["service.checkpoint_writes"]
	var total, detected, redundant, aborted int
	for _, j := range firstOf {
		s := j.status.Result
		if s == nil {
			continue
		}
		total += s.Total
		detected += s.Detected
		redundant += s.Redundant
		aborted += s.Aborted
		m["atpg.effort_gevals"] += float64(s.Effort)
		m["atpg.backtracks"] += float64(s.Backtracks)
		m["atpg.tests"] += float64(s.Tests)
		m["atpg.states_traversed"] += float64(s.StatesTraversed)
	}
	m["fe_pct"] = 100 * ratio(float64(detected+redundant), float64(total))
	m["fc_pct"] = 100 * ratio(float64(detected), float64(total))
	m["atpg.abort_frac"] = ratio(float64(aborted), float64(total))
	m["fault_ms_p50"] = percentile(perFault, 50)
	m["fault_ms_p95"] = percentile(perFault, 95)
	m["job_ms_p50"] = percentile(all, 50)
	m["job_ms_p95"] = percentile(all, 95)
	m["cold_ms_p50"] = percentile(cold, 50)
	m["hit_ms_p50"] = percentile(hits, 50)
	m["service.submit_ms_p50"] = percentile(submit, 50)
	m["service.queue_wait_ms_p50"] = percentile(queue, 50)
	m["service.queue_wait_ms_p95"] = percentile(queue, 95)
	m["service.run_ms_p50"] = percentile(run, 50)
	m["service.run_ms_p95"] = percentile(run, 95)
	cs := rd.cache
	m["rescache.hits"] = float64(cs.Hits)
	m["rescache.misses"] = float64(cs.Misses)
	m["rescache.hit_rate"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
	m["rescache.stored"] = float64(cs.Stored)
	m["rescache.evictions"] = float64(cs.Evictions)
	m["rescache.bytes"] = float64(cs.Bytes)
	m["rescache.quarantined"] = float64(cs.Quarantined)
	return m
}
