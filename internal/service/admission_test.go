package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"seqatpg/internal/campaign"
)

// TestRetryAfterSeconds pins the clamp edges: zero/negative drains hit
// the floor (the old hard-coded constant, so low-load behavior is
// unchanged), huge drains hit the ceiling, and in between the value is
// the drain rounded up to whole seconds.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		drain time.Duration
		want  int
	}{
		{0, retryAfterFloor},
		{-5 * time.Second, retryAfterFloor},
		{time.Millisecond, retryAfterFloor},
		{2 * time.Second, retryAfterFloor},
		{2*time.Second + time.Millisecond, 3},
		{3 * time.Second, 3},
		{599 * time.Second, 599},
		{600 * time.Second, retryAfterCeil},
		{24 * time.Hour, retryAfterCeil},
		{time.Duration(math.MaxInt64), retryAfterCeil},
		{time.Duration(math.MinInt64), retryAfterFloor},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.drain); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.drain, got, tc.want)
		}
	}
}

// TestPreparedCostEstimate: every prepared job carries a positive cost
// estimate, the hardest fault never exceeds the whole-job estimate,
// per-fault clamps respect the retry ladder's final budget, and shard
// estimates partition the full job's estimate exactly.
func TestPreparedCostEstimate(t *testing.T) {
	bench := benchText(t, 6, 11)
	full, err := Prepare(Spec{Netlist: bench})
	if err != nil {
		t.Fatal(err)
	}
	if full.CostEstimate <= 0 || full.MaxFaultCost <= 0 {
		t.Fatalf("no cost estimate: total %d, max %d", full.CostEstimate, full.MaxFaultCost)
	}
	if full.MaxFaultCost > full.CostEstimate {
		t.Fatalf("hardest fault %d exceeds whole-job estimate %d", full.MaxFaultCost, full.CostEstimate)
	}

	// A tiny budget ladder clamps every per-fault prediction.
	tiny, err := Prepare(Spec{Netlist: bench, FaultBudget: 100, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.MaxFaultCost > 200 { // 100 << 1
		t.Errorf("per-fault clamp ignored the ladder: max %d > 200", tiny.MaxFaultCost)
	}
	if tiny.CostEstimate > 200*int64(len(tiny.Faults)) {
		t.Errorf("estimate %d exceeds %d clamped faults x 200", tiny.CostEstimate, len(tiny.Faults))
	}

	// Shard estimates partition the full estimate: the clamps are
	// per-fault, so summing the shard sublists reassembles the total.
	var sum int64
	for k := 0; k < 3; k++ {
		p, err := Prepare(Spec{Netlist: bench, Shard: &ShardSel{Index: k, Count: 3}})
		if err != nil {
			t.Fatal(err)
		}
		sum += p.CostEstimate
	}
	if sum != full.CostEstimate {
		t.Errorf("shard estimates sum to %d, full job estimates %d", sum, full.CostEstimate)
	}
}

// TestBalancedShardSel: the Balanced selector partitions the same
// fault universe (every fault exactly once, matching the coordinator's
// plan), it just packs by predicted cost. Worker-side Prepare and the
// coordinator-side ShardSel.Plan over the whole campaign must agree
// bin for bin.
func TestBalancedShardSel(t *testing.T) {
	bench := benchText(t, 6, 11)
	full, err := Prepare(Spec{Netlist: bench})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Scores) != len(full.Faults) {
		t.Fatalf("Prepare scored %d of %d faults", len(full.Scores), len(full.Faults))
	}
	idxs := ShardSel{Count: 3, Balanced: true}.Plan(full.Campaign, full.Scores).Indices()
	seen := 0
	for k := 0; k < 3; k++ {
		p, err := Prepare(Spec{Netlist: bench, Shard: &ShardSel{Index: k, Count: 3, Balanced: true}})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Faults) != len(idxs[k]) {
			t.Fatalf("shard %d: Prepare selected %d faults, the plan %d", k, len(p.Faults), len(idxs[k]))
		}
		for i, gi := range idxs[k] {
			if p.Faults[i] != full.Faults[gi] {
				t.Fatalf("shard %d fault %d: Prepare and the plan disagree", k, i)
			}
		}
		seen += len(p.Faults)
	}
	if seen != len(full.Faults) {
		t.Fatalf("balanced shards cover %d of %d faults", seen, len(full.Faults))
	}
}

// TestWatchBudget: prediction may stretch the watchdog budget, never
// shrink it below the configured StuckTimeout, and a runaway
// prediction is capped rather than disabling hang detection.
func TestWatchBudget(t *testing.T) {
	s := &Server{opts: Options{StuckTimeout: time.Second}}
	base := s.opts.StuckTimeout
	rate := s.EvalRate() // no completions: the deterministic prior

	if got := s.watchBudget(&job{maxFaultCost: 1 << 40}); got != base {
		t.Errorf("PredictBudgets off: budget %v, want %v", got, base)
	}
	s.opts.PredictBudgets = true
	if got := s.watchBudget(&job{}); got != base {
		t.Errorf("no prediction: budget %v, want %v", got, base)
	}
	// A fault predicted to need one second of evaluation gets 4x that.
	j := &job{maxFaultCost: int64(rate)}
	if got := s.watchBudget(j); got != 4*time.Second {
		t.Errorf("1s hardest fault: budget %v, want 4s", got)
	}
	// Predictions below the floor never shrink the budget.
	if got := s.watchBudget(&job{maxFaultCost: 1}); got != base {
		t.Errorf("tiny prediction: budget %v, want floor %v", got, base)
	}
	// A runaway prediction is capped, not unbounded.
	if got := s.watchBudget(&job{maxFaultCost: math.MaxInt64}); got != maxWatchBudget {
		t.Errorf("runaway prediction: budget %v, want cap %v", got, maxWatchBudget)
	}
}

// TestRetryAfterScalesWithBacklog: with a backlog of predicted-costly
// jobs stalled behind a blocked worker, the queue-full 429 carries a
// Retry-After derived from the predicted drain time — strictly above
// the old constant — and /readyz advertises the same hint.
func TestRetryAfterScalesWithBacklog(t *testing.T) {
	bench := retimedBenchText(t, 6, 11, 2)
	spec := Spec{Netlist: bench}
	p, err := Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.CostEstimate <= 0 {
		t.Fatal("spec has no cost estimate")
	}
	// Enough identical jobs that the predicted backlog needs well over
	// the floor (2s) to drain at the prior rate with one worker.
	need := int64(3 * DefaultEvalRate)
	n := int(need/p.CostEstimate) + 1
	if n > 200 {
		t.Fatalf("per-job estimate %d too small; would need %d submissions", p.CostEstimate, n)
	}

	s, err := New(t.TempDir(), Options{Workers: 1, QueueCap: n})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	release := make(chan struct{})
	defer close(release)
	s.testRunCampaign = func(ctx context.Context, j *job, ccfg campaign.Config) (*campaign.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, errors.New("test: blocked run")
	}

	// First job occupies the (blocked) worker; wait for it so the queue
	// fills deterministically behind it.
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning := func() {
		for deadline := time.Now().Add(5 * time.Second); ; {
			if st, _ := s.Status(first); st.State == Running {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("first job never started running")
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitRunning()
	for i := 0; i < n; i++ {
		if _, err := s.Submit(spec); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}

	drain := s.DrainEstimate()
	if drain <= retryAfterFloor*time.Second {
		t.Fatalf("backlog of %d jobs x %d evals predicted to drain in %v, want > %ds",
			n+1, p.CostEstimate, drain, retryAfterFloor)
	}
	want := retryAfterSeconds(drain)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submission: status %d, want 429", resp.StatusCode)
	}
	got, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
	}
	if got <= retryAfterFloor {
		t.Errorf("Retry-After %d did not scale with the backlog (old constant was %d)", got, retryAfterFloor)
	}
	if got != want {
		t.Errorf("Retry-After %d, want %d (drain %v)", got, want, drain)
	}

	// /readyz reports not-ready with the same drain-derived hint.
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with a full queue: status %d, want 503", rresp.StatusCode)
	}
	if ra, _ := strconv.Atoi(rresp.Header.Get("Retry-After")); ra <= retryAfterFloor {
		t.Errorf("/readyz Retry-After %d did not scale with the backlog", ra)
	}
}
