package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"seqatpg/internal/campaign"
	"seqatpg/internal/encode"
	"seqatpg/internal/fsm"
	"seqatpg/internal/ioguard"
	"seqatpg/internal/netlist"
	"seqatpg/internal/retime"
	"seqatpg/internal/service"
	"seqatpg/internal/synth"
)

// benchText synthesizes a small FSM circuit as .bench source, the
// shape of a real submission.
func benchText(t *testing.T, states int, seed int64) string {
	t.Helper()
	m, err := fsm.Generate(fsm.GenSpec{Name: "fab", Inputs: 3, Outputs: 2, States: states, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	r, err := synth.Synthesize(m, synth.Options{
		Algorithm: encode.Combined, Script: synth.Rugged, UseUnreachableDC: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := netlist.WriteBench(&b, r.Circuit); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// worker is one fleet member: a real job service behind a real
// listener, killable mid-run.
type worker struct {
	srv *service.Server
	ts  *httptest.Server
}

func (w *worker) url() string  { return w.ts.URL }
func (w *worker) host() string { u, _ := url.Parse(w.ts.URL); return u.Host }

// kill closes the listener — in-flight and future requests fail — and
// abandons the service (its jobs keep running or die with the test).
func (w *worker) kill() { w.ts.CloseClientConnections(); w.ts.Close() }

// startWorker boots a worker. A non-nil fs throttles or faults its job
// store; chaos tests use an ioguard.FaultFS that delays checkpoint
// writes so shard jobs are reliably still running when chaos strikes.
func startWorker(t *testing.T, fs ioguard.FS) *worker {
	t.Helper()
	srv, err := service.New(t.TempDir(), service.Options{
		Workers:         2,
		CheckpointEvery: time.Millisecond,
		FS:              fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	w := &worker{srv: srv, ts: ts}
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	return w
}

// slowFS throttles checkpoint writes; combined with CheckpointEvery of
// a millisecond this paces the campaign at a few milliseconds per
// fault, long enough for the coordinator to observe (and sabotage) a
// running shard without making the test slow.
func slowFS() ioguard.FS {
	return ioguard.NewFaultFS(ioguard.OS, ioguard.Rule{
		PathContains: "checkpoint.json", Mode: ioguard.Delay, Delay: 25 * time.Millisecond,
	})
}

// testSpec is the chaos workload: a register-multiplied retimed
// circuit — the paper's hard case — truncated to two dozen faults. The
// retiming matters for timing, not just fidelity: each fault attack
// takes real milliseconds, so the periodic checkpointer (gated on
// wall-clock gaps) demonstrably fires mid-shard and the coordinator
// has checkpoints to cache before chaos strikes. A combinational
// toy circuit can finish a whole shard before the first gap elapses,
// which would make these tests vacuous.
func testSpec(t *testing.T) service.Spec {
	t.Helper()
	m, err := fsm.Generate(fsm.GenSpec{Name: "fab-re", Inputs: 3, Outputs: 2, States: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := synth.Synthesize(m, synth.Options{
		Algorithm: encode.Combined, Script: synth.Rugged, UseUnreachableDC: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	re, err := retime.Backward(r.Circuit, netlist.DefaultLibrary(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := netlist.WriteBench(&b, re.Circuit); err != nil {
		t.Fatal(err)
	}
	return service.Spec{Name: "chaos", Netlist: b.String(), MaxFaults: 24}
}

// reference runs the same campaign single-node via campaign.Execute of
// the round-robin plan — the result every federated run must reproduce
// exactly.
func reference(t *testing.T, spec service.Spec, shards int) *campaign.Result {
	t.Helper()
	p, err := service.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Execute(context.Background(), p.Circuit, p.Faults, campaign.PlanRoundRobin(p.Campaign, len(p.Faults), shards))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// chaosClientOptions are tight timeouts so lease losses are detected
// in tens of milliseconds instead of tens of seconds.
func chaosClientOptions() ClientOptions {
	return ClientOptions{
		RetryMax:       1,
		RequestTimeout: 300 * time.Millisecond,
		BackoffBase:    5 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		// Low enough that a killed or partitioned worker is ejected
		// after a few failed calls instead of soaking up re-dispatch
		// attempts; the lease machinery still drives the detection.
		BreakerThreshold: 6,
		Probation:        300 * time.Millisecond,
	}
}

// assertConverged checks the federated result carries exactly the
// single-node verdicts, stats, tests and crash records. Resume and
// degradation flags are excluded: chaos legitimately sets them (and
// the chaos tests assert them separately).
func assertConverged(t *testing.T, got, want *campaign.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
		t.Fatal("federated outcomes diverge from the single-node run")
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("federated stats diverge from the single-node run:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Tests, want.Tests) {
		t.Fatal("federated test sequences diverge from the single-node run")
	}
	if !reflect.DeepEqual(got.Crashes, want.Crashes) {
		t.Fatal("federated crash records diverge from the single-node run")
	}
	if got.Passes != want.Passes {
		t.Fatalf("federated passes %d, single-node %d", got.Passes, want.Passes)
	}
}

// TestFabricMergeShardCountInvariance is the merge determinism
// property: for K ∈ {1, 2, 3, 7} — including K greater than the fault
// count, which produces empty shards — the coordinator's merge of K
// wire-shipped shard results is byte-identical (EncodeResult bytes) to
// a single-node Execute of the same round-robin plan.
func TestFabricMergeShardCountInvariance(t *testing.T) {
	spec := service.Spec{Name: "invariance", Netlist: benchText(t, 4, 7), MaxFaults: 6}
	w0, w1 := startWorker(t, nil), startWorker(t, nil)

	single := reference(t, spec, 1)
	for _, k := range []int{1, 2, 3, 7} {
		coord, err := NewCoordinator(Options{
			Workers:   []string{w0.url(), w1.url()},
			Shards:    k,
			Lease:     5 * time.Second,
			Heartbeat: 10 * time.Millisecond,
			Client:    chaosClientOptions(),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		want := reference(t, spec, k)
		gotB, err := campaign.EncodeResult(got)
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := campaign.EncodeResult(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotB, wantB) {
			t.Fatalf("K=%d: federated result is not byte-identical to single-node Execute", k)
		}
		// And shard-count invariance itself: every K reproduces K=1's
		// verdicts and stats (test *order* legitimately varies with the
		// partitioning; the byte check above pinned it for this K).
		if !reflect.DeepEqual(got.Outcomes, single.Outcomes) {
			t.Fatalf("K=%d: outcomes diverge from K=1", k)
		}
		if !reflect.DeepEqual(got.Stats, single.Stats) {
			t.Fatalf("K=%d: stats diverge from K=1", k)
		}
		if snap := coord.Metrics(); snap.RedispatchTotal != 0 || snap.LeasesActive != 0 {
			t.Fatalf("K=%d: healthy run reports redispatch=%d leases=%d", k, snap.RedispatchTotal, snap.LeasesActive)
		}
	}
}

// TestFabricChaosWorkerKillMidShard kills a worker while it holds a
// running shard whose checkpoint the coordinator has already cached.
// The lease expires, the shard re-dispatches to the surviving worker
// seeded with that checkpoint, and the merged result is exactly the
// single-node one — with Resumed proving the re-dispatch continued
// from the checkpoint rather than silently restarting.
func TestFabricChaosWorkerKillMidShard(t *testing.T) {
	spec := testSpec(t)
	w0 := startWorker(t, slowFS())
	w1 := startWorker(t, slowFS())

	var killOnce sync.Once
	killed := make(chan struct{})
	coord, err := NewCoordinator(Options{
		Workers:       []string{w0.url(), w1.url()},
		Shards:        2,
		Lease:         2 * time.Second,
		Heartbeat:     25 * time.Millisecond,
		MaxRedispatch: 10,
		Client:        chaosClientOptions(),
		Logf:          t.Logf,
		OnShardCheckpoint: func(shard int, wk string, data []byte) {
			if wk == w1.url() {
				killOnce.Do(func() {
					w1.kill()
					close(killed)
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := coord.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-killed:
	default:
		t.Fatal("chaos never fired: no checkpoint was cached from the victim worker")
	}

	assertConverged(t, got, reference(t, spec, 2))
	if !got.Resumed {
		t.Fatal("re-dispatched shard did not resume from the shipped checkpoint (silent full restart)")
	}
	snap := coord.Metrics()
	if snap.RedispatchTotal < 1 {
		t.Fatalf("redispatch_total=%d, want >= 1 after a worker kill", snap.RedispatchTotal)
	}
	if snap.LeasesActive != 0 {
		t.Fatalf("leases_active=%d after completion, want 0", snap.LeasesActive)
	}
}

// TestFabricChaosCoordinatorPartition blackholes the network between
// the coordinator and one worker mid-shard. The worker is healthy and
// keeps computing, but from the coordinator's side the lease expires
// and the shard moves; the duplicate execution on the partitioned
// worker must not corrupt the merged result.
func TestFabricChaosCoordinatorPartition(t *testing.T) {
	spec := testSpec(t)
	w0 := startWorker(t, slowFS())
	w1 := startWorker(t, slowFS())

	rt := NewFaultRT(nil)
	var partitionOnce sync.Once
	partitioned := make(chan struct{})
	clOpts := chaosClientOptions()
	clOpts.Transport = rt

	coord, err := NewCoordinator(Options{
		Workers:       []string{w0.url(), w1.url()},
		Shards:        2,
		Lease:         2 * time.Second,
		Heartbeat:     25 * time.Millisecond,
		MaxRedispatch: 10,
		Client:        clOpts,
		Logf:          t.Logf,
		OnShardCheckpoint: func(shard int, wk string, data []byte) {
			if wk == w1.url() {
				partitionOnce.Do(func() {
					rt.SetRules(RTRule{HostContains: w1.host(), Mode: RTBlackhole})
					close(partitioned)
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := coord.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-partitioned:
	default:
		t.Fatal("chaos never fired: no checkpoint was cached from the partitioned worker")
	}

	assertConverged(t, got, reference(t, spec, 2))
	if !got.Resumed {
		t.Fatal("shard moved off the partitioned worker without resuming its checkpoint")
	}
	if rt.Trips() == 0 {
		t.Fatal("partition rule never tripped")
	}
	if snap := coord.Metrics(); snap.RedispatchTotal < 1 {
		t.Fatalf("redispatch_total=%d, want >= 1 after a partition", snap.RedispatchTotal)
	}
}

// TestFabricChaosCoordinatorRestart stops the coordinator mid-campaign
// and starts a fresh one over the same durable state directory. The
// journal restores finished shards, cached checkpoints seed the rest,
// and the final result is exactly the single-node one.
func TestFabricChaosCoordinatorRestart(t *testing.T) {
	spec := testSpec(t)
	w0 := startWorker(t, slowFS())
	w1 := startWorker(t, slowFS())
	fleet := []string{w0.url(), w1.url()}
	dir := t.TempDir()

	opts := func() Options {
		return Options{
			Workers:       fleet,
			Shards:        3,
			Lease:         2 * time.Second,
			Heartbeat:     25 * time.Millisecond,
			MaxRedispatch: 10,
			Dir:           dir,
			Client:        chaosClientOptions(),
			Logf:          t.Logf,
		}
	}

	// First incarnation: die right after the first shard completes.
	ctx1, crash := context.WithCancel(context.Background())
	defer crash()
	o := opts()
	o.OnShardDone = func(shard int, wk string) { crash() }
	coord1, err := NewCoordinator(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord1.Run(ctx1, spec); err == nil {
		// Every shard finished before the cancellation propagated —
		// rare but legal; the restart below then restores all of them.
		t.Log("first coordinator finished before the injected crash")
	}

	// Second incarnation over the same state directory.
	coord2, err := NewCoordinator(opts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := coord2.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	assertConverged(t, got, reference(t, spec, 3))
	snap := coord2.Metrics()
	if snap.ShardsRestoredTotal < 1 {
		t.Fatalf("shards_restored_total=%d, want >= 1 after a coordinator restart", snap.ShardsRestoredTotal)
	}
}

// TestFabricChaosRestartBeforeFirstShardDone crashes the coordinator
// after checkpoints were cached but before ANY shard finished — the
// journal has an empty done-list, yet the eagerly written fingerprint
// binding must let the restart ship the cached checkpoints so workers
// resume mid-shard instead of starting over.
func TestFabricChaosRestartBeforeFirstShardDone(t *testing.T) {
	spec := testSpec(t)
	w0 := startWorker(t, slowFS())
	w1 := startWorker(t, slowFS())
	fleet := []string{w0.url(), w1.url()}
	dir := t.TempDir()

	opts := func() Options {
		return Options{
			Workers:       fleet,
			Shards:        2,
			Lease:         2 * time.Second,
			Heartbeat:     25 * time.Millisecond,
			MaxRedispatch: 10,
			Dir:           dir,
			Client:        chaosClientOptions(),
			Logf:          t.Logf,
		}
	}

	// First incarnation: die as soon as one shard checkpoint is cached.
	ctx1, crash := context.WithCancel(context.Background())
	defer crash()
	o := opts()
	o.OnShardCheckpoint = func(shard int, wk string, data []byte) { crash() }
	coord1, err := NewCoordinator(o)
	if err != nil {
		t.Fatal(err)
	}
	_, firstErr := coord1.Run(ctx1, spec)
	if firstErr == nil {
		t.Log("first coordinator finished before the injected crash")
	}
	if coord1.Metrics().ShardsRestoredTotal != 0 {
		t.Fatal("first incarnation restored shards out of nowhere")
	}

	// Second incarnation: nothing is journal-restored (no shard was
	// done), but the run must converge and report a mid-shard resume,
	// which only happens if the cached checkpoints were shipped.
	coord2, err := NewCoordinator(opts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := coord2.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	assertConverged(t, got, reference(t, spec, 2))
	if firstErr != nil && !got.Resumed {
		t.Fatal("restarted run is not marked resumed: cached checkpoints were not shipped")
	}
}

// stubVersionHandler mimics a worker whose result-wire format is from
// a different build.
func stubVersionHandler(wire int) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /version", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.VersionInfo{
			Service: "seqatpg", API: service.APIVersion,
			CheckpointFormat: campaign.CheckpointFormatVersion, ResultWire: wire,
		})
	})
	return mux
}

// TestFabricHandshakeRejectsIncompatibleWorker pins that a worker
// announcing a different wire format is ejected at the handshake, and
// that a fleet with no compatible worker fails fast.
func TestFabricHandshakeRejectsIncompatibleWorker(t *testing.T) {
	spec := service.Spec{Name: "hs", Netlist: benchText(t, 4, 7), MaxFaults: 4}
	good := startWorker(t, nil)
	bad := httptest.NewServer(stubVersionHandler(99))
	defer bad.Close()

	coord, err := NewCoordinator(Options{
		Workers:   []string{good.url(), bad.URL},
		Shards:    2,
		Heartbeat: 10 * time.Millisecond,
		Client:    chaosClientOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("a fleet with one good worker should still complete: %v", err)
	}
	assertConverged(t, got, reference(t, spec, 2))
	if snap := coord.Metrics(); len(snap.WorkerInflight) != 1 {
		t.Fatalf("incompatible worker still in the fleet: %+v", snap.WorkerInflight)
	}

	allBad, err := NewCoordinator(Options{
		Workers: []string{bad.URL},
		Shards:  1,
		Client:  chaosClientOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := allBad.Run(context.Background(), spec); err == nil {
		t.Fatal("an all-incompatible fleet completed a campaign")
	}
}

// TestFabricMetricsHandler scrapes the coordinator's Prometheus
// endpoint after a healthy run.
func TestFabricMetricsHandler(t *testing.T) {
	spec := service.Spec{Name: "metrics", Netlist: benchText(t, 4, 7), MaxFaults: 4}
	w0 := startWorker(t, nil)
	coord, err := NewCoordinator(Options{
		Workers:   []string{w0.url()},
		Shards:    2,
		Heartbeat: 10 * time.Millisecond,
		Client:    chaosClientOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	coord.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"atpg_fabric_leases_active 0",
		"atpg_fabric_redispatch_total 0",
		"atpg_fabric_worker_ejected_total 0",
		"atpg_fabric_shards_restored_total 0",
		"atpg_fabric_worker_inflight{worker=\"" + w0.url() + "\"} 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}
