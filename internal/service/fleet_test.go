package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"seqatpg/internal/campaign"
)

// startHTTP runs a service behind an httptest listener.
func startHTTP(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	srv, err := New(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	return srv, ts.URL
}

func TestVersionHandshake(t *testing.T) {
	_, base := startHTTP(t, Options{Workers: 1})
	resp, err := http.Get(base + "/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	want := Version()
	if v.Service != "seqatpg" || v.API != APIVersion ||
		v.CheckpointFormat != campaign.CheckpointFormatVersion ||
		v.ResultWire != campaign.ResultWireVersion {
		t.Fatalf("handshake payload %+v, want to match %+v", v, want)
	}
}

func TestReadyzSplitFromHealthz(t *testing.T) {
	srv, base := startHTTP(t, Options{Workers: 1})

	get := func(path string) (int, ReadyStatus) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st ReadyStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, st
	}

	if code, st := get("/readyz"); code != http.StatusOK || !st.Ready {
		t.Fatalf("idle server readyz: code %d, %+v", code, st)
	}

	// Draining: liveness stays 200, readiness flips to 503 with the
	// reason in the body.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	code, st := get("/readyz")
	if code != http.StatusServiceUnavailable || st.Ready || !st.Draining || st.Reason != "draining" {
		t.Fatalf("draining readyz: code %d, %+v", code, st)
	}
}

func TestQueueFullRetryAfterAndReadyz(t *testing.T) {
	// One worker, queue capped at 1, and a job that blocks the worker:
	// the next submissions fill and then overflow the queue.
	srv, base := startHTTP(t, Options{Workers: 1, QueueCap: 1})
	release := make(chan struct{})
	srv.testRunCampaign = func(ctx context.Context, j *job, ccfg campaign.Config) (*campaign.Result, error) {
		<-release
		return nil, context.Canceled
	}
	defer close(release)

	text := benchText(t, 4, 1)
	postJob(t, base, Spec{Name: "blocker", Netlist: text})
	// Wait for the blocker to leave the queue and occupy the worker.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Ready().RunningJobs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	postJob(t, base, Spec{Name: "queued", Netlist: text})

	if st := srv.Ready(); st.Ready || st.Reason != "queue full" || st.QueueDepth != 1 {
		t.Fatalf("saturated queue should report not-ready: %+v", st)
	}

	body, err := json.Marshal(Spec{Name: "overflow", Netlist: text})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q is not a positive integer of seconds", ra)
	}
}

// TestShardSpecPrepare pins that a shard selector prepares exactly the
// sublist campaign.PlanRoundRobin names and normalizes the config the
// way campaign.Execute's shards run it.
func TestShardSpecPrepare(t *testing.T) {
	text := benchText(t, 5, 2)
	whole, err := Prepare(Spec{Netlist: text})
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	idxs := campaign.PlanRoundRobin(whole.Campaign, len(whole.Faults), shards).Indices()
	seen := 0
	for k := 0; k < shards; k++ {
		p, err := Prepare(Spec{Netlist: text, Shard: &ShardSel{Index: k, Count: shards}})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Faults) != len(idxs[k]) {
			t.Fatalf("shard %d: %d faults, want %d", k, len(p.Faults), len(idxs[k]))
		}
		for i, gi := range idxs[k] {
			if p.Faults[i] != whole.Faults[gi] {
				t.Fatalf("shard %d fault %d is not global fault %d", k, i, gi)
			}
		}
		if !p.Campaign.Engine.NoFaultDrop {
			t.Fatalf("shard %d: config not normalized for sharding", k)
		}
		want := campaign.NormalizeForSharding(whole.Campaign)
		if !reflect.DeepEqual(p.Campaign.Engine, want.Engine) {
			t.Fatalf("shard %d: engine config diverges from NormalizeForSharding", k)
		}
		seen += len(p.Faults)
	}
	if seen != len(whole.Faults) {
		t.Fatalf("shards cover %d faults, universe has %d", seen, len(whole.Faults))
	}

	// Invalid selectors are rejected at submission time.
	for _, bad := range []Spec{
		{Netlist: text, Shard: &ShardSel{Index: 0, Count: 0}},
		{Netlist: text, Shard: &ShardSel{Index: 3, Count: 3}},
		{Netlist: text, Shard: &ShardSel{Index: -1, Count: 3}},
		{Netlist: text, Shard: &ShardSel{Index: 0, Count: 2}, Shards: 4},
		{Netlist: text, Checkpoint: json.RawMessage(`{}`)},
		{Netlist: text, Shard: &ShardSel{Index: 0, Count: 2}, Checkpoint: json.RawMessage(`{"version":99}`)},
	} {
		if _, err := Prepare(bad); err == nil {
			t.Fatalf("spec %+v prepared without error", bad)
		}
	}
}

// TestShardCountCap: a shard count above MaxShards — as a local shard
// count or a shard selector's count — is rejected by Prepare before any
// partition is allocated, and over HTTP as a 4xx that leaves the server
// serving and nothing persisted for a restart to re-run.
func TestShardCountCap(t *testing.T) {
	text := benchText(t, 4, 3)
	for _, n := range []int{MaxShards + 1, 1 << 34} {
		for _, bad := range []Spec{
			{Netlist: text, Shards: n},
			{Netlist: text, Shard: &ShardSel{Index: 0, Count: n}},
			{Netlist: text, Shard: &ShardSel{Index: 0, Count: n, Balanced: true}},
		} {
			if _, err := Prepare(bad); err == nil {
				t.Fatalf("Prepare accepted shards=%d shard=%+v", bad.Shards, bad.Shard)
			}
		}
	}
	for _, ok := range []Spec{
		{Netlist: text, Shards: MaxShards},
		{Netlist: text, Shard: &ShardSel{Index: MaxShards - 1, Count: MaxShards}},
	} {
		if _, err := Prepare(ok); err != nil {
			t.Fatalf("Prepare rejected a spec at the cap: %v", err)
		}
	}

	srv, base := startHTTP(t, Options{Workers: 1})
	for _, body := range []string{
		`{"netlist":` + strconv.Quote(text) + `,"shards":17179869184}`,
		`{"netlist":` + strconv.Quote(text) + `,"shard":{"index":0,"count":17179869184}}`,
	} {
		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("over-cap submission: status %d, want 4xx", resp.StatusCode)
		}
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after over-cap submissions: %d", resp.StatusCode)
	}
	if jobs := srv.List(); len(jobs) != 0 {
		t.Fatalf("over-cap submissions persisted %d job(s)", len(jobs))
	}
}

// TestShardResultEndpoint runs one shard job end to end and checks the
// /shard-result payload decodes to exactly the Result a local campaign
// over the same sublist produces.
func TestShardResultEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	text := benchText(t, 4, 3)
	spec := Spec{Name: "shard", Netlist: text, MaxFaults: 8, Shard: &ShardSel{Index: 1, Count: 2}}

	_, base := startHTTP(t, Options{Workers: 1, CheckpointEvery: time.Millisecond})
	id := postJob(t, base, spec)
	waitStatus(t, base, id, 2*time.Minute, "done", func(st JobStatus) bool { return st.State == Done })

	// Checkpoint endpoint: the finished job removed its checkpoint, so
	// this must be a clean 404, not a 500.
	resp, err := http.Get(base + "/jobs/" + id + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("checkpoint of finished job: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(base + "/jobs/" + id + "/shard-result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard-result: status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := campaign.DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}

	p, err := Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(context.Background(), p.Circuit, p.Faults, p.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
		t.Fatal("shard-result outcomes diverge from a local run of the same sublist")
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("shard-result stats diverge from a local run:\n%+v\n%+v", got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Tests, want.Tests) {
		t.Fatal("shard-result tests diverge from a local run")
	}
}
