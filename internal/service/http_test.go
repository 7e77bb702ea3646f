package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"seqatpg/internal/campaign"
	"seqatpg/internal/sim"
)

func postJob(t *testing.T, base string, spec Spec) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit %q: status %d, body %v", spec.Name, resp.StatusCode, out)
	}
	return out["id"]
}

func getStatus(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitStatus polls a job over HTTP until pred holds.
func waitStatus(t *testing.T, base, id string, deadline time.Duration, what string, pred func(JobStatus) bool) JobStatus {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		st := getStatus(t, base, id)
		if pred(st) {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s went terminal (%s, %q) while waiting for %s: %+v", id, st.State, st.Error, what, st)
		}
		if time.Now().After(stop) {
			t.Fatalf("job %s never reached %s: %+v", id, what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getResult(t *testing.T, base, id string) Summary {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: status %d", id, resp.StatusCode)
	}
	var sum Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestServeEndToEndRestartResume is the acceptance scenario: three jobs
// on a two-worker server (one sharded, one on a retimed circuit), one
// cancelled mid-run, the server killed while the retimed job is
// running, and a second server on the same directory that resumes the
// interrupted job from its checkpoint — finishing with stats identical
// to a run that was never stopped.
func TestServeEndToEndRestartResume(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(dir, Options{Workers: 2, CheckpointEvery: time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())

	// The long-running kill target: a retimed circuit, the paper's hard
	// workload. Submitted first so a worker picks it up immediately.
	specB := Spec{
		Name:        "retimed-kill-target",
		Netlist:     retimedBenchText(t, 9, 12, 2),
		FaultBudget: 20_000,
		Retries:     3,
	}
	// The cancel target: also retimed, so it reliably runs long enough
	// to be caught mid-run.
	specC := Spec{
		Name:        "cancel-target",
		Netlist:     retimedBenchText(t, 8, 7, 2),
		FaultBudget: 20_000,
		Retries:     1,
	}
	// A fast sharded job that completes before the kill.
	specA := Spec{
		Name:        "sharded-fast",
		Netlist:     benchText(t, 7, 4),
		FaultBudget: 200_000,
		MaxFaults:   40,
		Shards:      2,
	}
	idB := postJob(t, ts1.URL, specB)
	idC := postJob(t, ts1.URL, specC)
	idA := postJob(t, ts1.URL, specA)

	// Cancel C once it is demonstrably mid-run.
	waitStatus(t, ts1.URL, idC, time.Minute, "running with progress",
		func(st JobStatus) bool { return st.State == Running && st.Attempts >= 1 })
	resp, err := http.Post(ts1.URL+"/jobs/"+idC+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel %s: status %d", idC, resp.StatusCode)
	}
	stop := time.Now().Add(time.Minute)
	for getStatus(t, ts1.URL, idC).State != Cancelled {
		if time.Now().After(stop) {
			t.Fatalf("job %s not cancelled: %+v", idC, getStatus(t, ts1.URL, idC))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, idC, "checkpoint.json*")); len(m) != 0 {
		t.Errorf("cancelled job kept checkpoints %v", m)
	}

	// A runs on the freed worker and completes; its vectors round-trip
	// through the vectors endpoint. (The reference comparison happens
	// after the kill, so the CPU it burns cannot delay the kill gate.)
	stA := waitStatus(t, ts1.URL, idA, 2*time.Minute, "done",
		func(st JobStatus) bool { return st.State == Done })
	pA, err := Prepare(specA)
	if err != nil {
		t.Fatal(err)
	}
	vresp, err := http.Get(ts1.URL + "/jobs/" + idA + "/vectors")
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := sim.ReadVectors(vresp.Body, len(pA.Circuit.PIs))
	vresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != stA.Result.Tests {
		t.Errorf("vectors endpoint served %d sequences, result says %d", len(seqs), stA.Result.Tests)
	}

	// Kill the server while B is mid-run with at least one checkpoint
	// on disk.
	waitStatus(t, ts1.URL, idB, 2*time.Minute, "checkpointed progress",
		func(st JobStatus) bool { return st.State == Running && st.CheckpointWrites >= 1 && st.Attempts >= 3 })
	ts1.Close()
	dctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	if err := srv1.Close(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cancel()
	stB, err := srv1.Status(idB)
	if err != nil {
		t.Fatal(err)
	}
	if stB.State != Queued {
		t.Fatalf("killed mid-run, job %s parked as %s, want queued", idB, stB.State)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, idB, "checkpoint.json*")); len(m) == 0 {
		t.Fatal("interrupted job left no checkpoint on disk")
	}

	// With the first process fully stopped, verify A's sharded result
	// against a direct Execute of the same prepared spec.
	refA, err := campaign.Execute(context.Background(), pA.Circuit, pA.Faults, campaign.PlanRoundRobin(pA.Campaign, len(pA.Faults), pA.Shards))
	if err != nil {
		t.Fatal(err)
	}
	if want := NewSummary(refA); !reflect.DeepEqual(*stA.Result, want) {
		t.Errorf("sharded job result through the service:\n %+v\nwant (direct Execute):\n %+v", *stA.Result, want)
	}

	// Second process on the same directory: A and C recover terminal, B
	// resumes from its checkpoint and finishes.
	srv2, err := New(dir, Options{Workers: 2, CheckpointEvery: time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Close(context.Background())

	if st := getStatus(t, ts2.URL, idA); st.State != Done || st.Result == nil {
		t.Errorf("restart lost done job %s: %+v", idA, st)
	}
	if st := getStatus(t, ts2.URL, idC); st.State != Cancelled {
		t.Errorf("restart lost cancelled job %s: %+v", idC, st)
	}
	stB2 := waitStatus(t, ts2.URL, idB, 5*time.Minute, "done after resume",
		func(st JobStatus) bool { return st.State == Done })
	if !stB2.Result.Resumed {
		t.Error("resumed job does not report Resumed")
	}

	// The resumed stats must be identical to an uninterrupted run of the
	// same spec.
	pB, err := Prepare(specB)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := campaign.Run(context.Background(), pB.Circuit, pB.Faults, pB.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	want := NewSummary(refB)
	want.Resumed = true // the only legitimate difference
	if !reflect.DeepEqual(*stB2.Result, want) {
		t.Errorf("resumed job result:\n %+v\nwant (uninterrupted run):\n %+v", *stB2.Result, want)
	}
}

// parseMetrics reads the Prometheus text exposition into a flat
// name{labels} -> value map.
func parseMetrics(t *testing.T, base string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	out := map[string]int64{}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k := strings.LastIndexByte(line, ' ')
		if k < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseInt(line[k+1:], 10, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:k]] = v
	}
	return out
}

// TestMetricsReconcile checks that after a set of jobs completes, the
// /metrics counters agree exactly with the sum of the jobs' final
// campaign results and per-job progress counters.
func TestMetricsReconcile(t *testing.T) {
	srv, err := New(t.TempDir(), Options{Workers: 2, CheckpointEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ids := []string{
		postJob(t, ts.URL, Spec{Name: "m-plain", Netlist: benchText(t, 7, 4), MaxFaults: 25, FaultBudget: 200_000}),
		postJob(t, ts.URL, Spec{Name: "m-sharded", Netlist: benchText(t, 5, 3), MaxFaults: 25, FaultBudget: 200_000, Shards: 2}),
	}
	waitJobs(t, srv, 2*time.Minute, func(st JobStatus) bool { return st.State.Terminal() })

	var sum Summary
	var attempts, ckpts, ckptFails, degraded int64
	for _, id := range ids {
		st := getStatus(t, ts.URL, id)
		if st.State != Done {
			t.Fatalf("job %s finished as %s (%s)", id, st.State, st.Error)
		}
		r := getResult(t, ts.URL, id)
		sum.Detected += r.Detected
		sum.Redundant += r.Redundant
		sum.Aborted += r.Aborted
		sum.Crashed += r.Crashed
		sum.Effort += r.Effort
		sum.Backtracks += r.Backtracks
		sum.Tests += r.Tests
		attempts += st.Attempts
		ckpts += st.CheckpointWrites
		ckptFails += st.CheckpointFailures
		if st.Degraded {
			degraded++
		}
	}

	m := parseMetrics(t, ts.URL)
	checks := []struct {
		name string
		want int64
	}{
		{`atpg_jobs_queued`, 0},
		{`atpg_jobs_running`, 0},
		{`atpg_jobs_finished_total{state="done"}`, int64(len(ids))},
		{`atpg_jobs_finished_total{state="failed"}`, 0},
		{`atpg_jobs_finished_total{state="cancelled"}`, 0},
		{`atpg_faults_total{outcome="detected"}`, int64(sum.Detected)},
		{`atpg_faults_total{outcome="redundant"}`, int64(sum.Redundant)},
		{`atpg_faults_total{outcome="aborted"}`, int64(sum.Aborted)},
		{`atpg_faults_total{outcome="crashed"}`, int64(sum.Crashed)},
		{`atpg_effort_total`, sum.Effort},
		{`atpg_backtracks_total`, sum.Backtracks},
		{`atpg_tests_total`, int64(sum.Tests)},
		{`atpg_fault_attempts_total`, attempts},
		{`atpg_checkpoint_writes_total`, ckpts},
		{`atpg_checkpoint_failures_total`, ckptFails},
		{`atpg_jobs_degraded`, degraded},
		{`atpg_queue_depth`, 0},
		{`atpg_submit_rejected_total`, 0},
		{`atpg_jobs_quarantined_total`, 0},
		{`atpg_watchdog_trips_total`, 0},
		// The cache metric family is emitted even with no cache
		// configured, so dashboards never see the series appear late.
		{`atpg_cache_hits_total`, 0},
		{`atpg_cache_misses_total`, 0},
		{`atpg_cache_evictions_total`, 0},
		{`atpg_cache_quarantined_total`, 0},
		{`atpg_cache_bytes`, 0},
	}
	for _, c := range checks {
		got, ok := m[c.name]
		if !ok {
			t.Errorf("metric %s missing", c.name)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %d, want %d (from summed job results)", c.name, got, c.want)
		}
	}

	// healthz while we are here.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}

	// Error mapping: missing job 404, result of unknown job 404,
	// cancel of done job 409, result of non-done job 409.
	for _, c := range []struct {
		method, path string
		want         int
	}{
		{"GET", "/jobs/j009999", http.StatusNotFound},
		{"GET", "/jobs/j009999/result", http.StatusNotFound},
		{"POST", "/jobs/" + ids[0] + "/cancel", http.StatusConflict},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

// TestRetriesCap: a retry count above MaxRetries is rejected by Prepare
// and over HTTP as a 4xx that leaves the server serving and nothing
// persisted for a restart to re-run; MaxRetries itself is accepted.
func TestRetriesCap(t *testing.T) {
	text := benchText(t, 4, 3)
	for _, n := range []int{MaxRetries + 1, 1_000_000} {
		if _, err := Prepare(Spec{Netlist: text, Retries: n}); err == nil {
			t.Fatalf("Prepare accepted retries=%d", n)
		}
	}
	if _, err := Prepare(Spec{Netlist: text, Retries: MaxRetries}); err != nil {
		t.Fatalf("Prepare rejected retries at the cap: %v", err)
	}
	checkRejectedOverHTTP(t, text, "retries", 1_000_000)
}

// TestFlushCyclesCap: a reset prefix below zero or above MaxFlushCycles
// is rejected the same way; MaxFlushCycles itself is accepted.
func TestFlushCyclesCap(t *testing.T) {
	text := benchText(t, 4, 3)
	for _, n := range []int{-1, MaxFlushCycles + 1, 1_000_000_000} {
		if _, err := Prepare(Spec{Netlist: text, FlushCycles: n}); err == nil {
			t.Fatalf("Prepare accepted flush_cycles=%d", n)
		}
	}
	if _, err := Prepare(Spec{Netlist: text, FlushCycles: MaxFlushCycles}); err != nil {
		t.Fatalf("Prepare rejected flush_cycles at the cap: %v", err)
	}
	checkRejectedOverHTTP(t, text, "flush_cycles", 1_000_000_000)
}

// checkRejectedOverHTTP submits the netlist with one integer spec field
// set to n and requires a 4xx, a server still healthy, and no job
// persisted.
func checkRejectedOverHTTP(t *testing.T, text, field string, n int) {
	t.Helper()
	srv, base := startHTTP(t, Options{Workers: 1})
	body := fmt.Sprintf(`{"netlist":%s,%q:%d}`, strconv.Quote(text), field, n)
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Fatalf("%s %d: status %d, want 4xx", field, n, resp.StatusCode)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after an over-cap submission: %d", resp.StatusCode)
	}
	if jobs := srv.List(); len(jobs) != 0 {
		t.Fatalf("over-cap submission persisted %d job(s)", len(jobs))
	}
}
