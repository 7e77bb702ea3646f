package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"seqatpg/internal/encode"
	"seqatpg/internal/fsm"
	"seqatpg/internal/netlist"
	"seqatpg/internal/retime"
	"seqatpg/internal/synth"
)

// benchText synthesizes a small FSM circuit and renders it as .bench
// source, the shape of a real submission.
func benchText(t *testing.T, states int, seed int64) string {
	t.Helper()
	m, err := fsm.Generate(fsm.GenSpec{Name: "svc", Inputs: 3, Outputs: 2, States: states, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	r, err := synth.Synthesize(m, synth.Options{
		Algorithm: encode.Combined, Script: synth.Rugged, UseUnreachableDC: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return renderBench(t, r.Circuit)
}

// retimedBenchText is benchText after register-multiplying retiming —
// the paper's hard workload and the e2e test's long-running job.
func retimedBenchText(t *testing.T, states int, seed int64, rounds int) string {
	t.Helper()
	m, err := fsm.Generate(fsm.GenSpec{Name: "svc-re", Inputs: 3, Outputs: 2, States: states, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	r, err := synth.Synthesize(m, synth.Options{
		Algorithm: encode.Combined, Script: synth.Rugged, UseUnreachableDC: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	re, err := retime.Backward(r.Circuit, netlist.DefaultLibrary(), rounds)
	if err != nil {
		t.Fatal(err)
	}
	return renderBench(t, re.Circuit)
}

func renderBench(t *testing.T, c *netlist.Circuit) string {
	t.Helper()
	var b strings.Builder
	if err := netlist.WriteBench(&b, c); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// waitJobs polls until every listed job satisfies ok, failing the test
// at the deadline.
func waitJobs(t *testing.T, s *Server, deadline time.Duration, ok func(JobStatus) bool) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		all := true
		for _, st := range s.List() {
			if !ok(st) {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(stop) {
			for _, st := range s.List() {
				t.Logf("job %s: state=%s attempts=%d err=%q", st.ID, st.State, st.Attempts, st.Error)
			}
			t.Fatal("jobs did not settle in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPrepareValidatesSpec(t *testing.T) {
	bench := benchText(t, 5, 3)
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"empty netlist", func(s *Spec) { s.Netlist = " " }},
		{"garbage netlist", func(s *Spec) { s.Netlist = "INPUT(\n=" }},
		{"unknown format", func(s *Spec) { s.Format = "verilog" }},
		{"unknown engine", func(s *Spec) { s.Engine = "podem" }},
		{"negative shards", func(s *Spec) { s.Shards = -1 }},
		{"negative max faults", func(s *Spec) { s.MaxFaults = -4 }},
		{"negative retries", func(s *Spec) { s.Retries = -1 }},
		{"retries over the cap", func(s *Spec) { s.Retries = MaxRetries + 1 }},
		{"negative flush cycles", func(s *Spec) { s.FlushCycles = -1 }},
		{"flush cycles over the cap", func(s *Spec) { s.FlushCycles = MaxFlushCycles + 1 }},
		{"negative budget", func(s *Spec) { s.FaultBudget = -1 }},
	}
	for _, tc := range cases {
		spec := Spec{Netlist: bench}
		tc.mut(&spec)
		if _, err := Prepare(spec); err == nil {
			t.Errorf("%s: Prepare accepted %+v", tc.name, spec)
		}
	}
	p, err := Prepare(Spec{Netlist: bench, Engine: "attest", Shards: 2, MaxFaults: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Faults) != 10 || p.Shards != 2 {
		t.Errorf("prepared %d faults, %d shards; want 10, 2", len(p.Faults), p.Shards)
	}
	// The exchange format is accepted too.
	var b strings.Builder
	if err := netlist.Write(&b, p.Circuit); err != nil {
		t.Fatal(err)
	}
	if _, err := Prepare(Spec{Netlist: b.String(), Format: "net"}); err != nil {
		t.Errorf("exchange-format netlist rejected: %v", err)
	}
}

// TestServerLifecycleFSM covers the queued → running → terminal edges
// and the error surface of the store API.
func TestServerLifecycleFSM(t *testing.T) {
	s, err := New(t.TempDir(), Options{Workers: 1, CheckpointEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	if _, err := s.Status("j000099"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown job: err = %v, want ErrNotFound", err)
	}
	if err := s.Cancel("j000099"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown: err = %v, want ErrNotFound", err)
	}
	if _, err := s.Submit(Spec{Netlist: "not a netlist", Format: "net"}); err == nil {
		t.Error("bad submission accepted")
	}

	id, err := s.Submit(Spec{Netlist: benchText(t, 5, 3), Name: "fsm", MaxFaults: 12})
	if err != nil {
		t.Fatal(err)
	}
	waitJobs(t, s, time.Minute, func(st JobStatus) bool { return st.State.Terminal() })
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Done {
		t.Fatalf("job finished as %s (%s), want done", st.State, st.Error)
	}
	if st.Result == nil || st.Result.Total != 12 {
		t.Fatalf("done job carries result %+v, want 12 faults", st.Result)
	}
	if st.Runs != 1 {
		t.Errorf("job ran %d times, want exactly once", st.Runs)
	}
	if err := s.Cancel(id); !errors.Is(err, ErrTerminal) {
		t.Errorf("cancel of done job: err = %v, want ErrTerminal", err)
	}

	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Spec{Netlist: benchText(t, 5, 3)}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after close: err = %v, want ErrDraining", err)
	}
}

// TestServerConcurrentSubmitCancelStatus hammers the pool from many
// goroutines under -race: submissions, cancellations and status reads
// interleave, and afterwards no job may be lost, run twice, or parked
// in a non-terminal state.
func TestServerConcurrentSubmitCancelStatus(t *testing.T) {
	s, err := New(t.TempDir(), Options{Workers: 4, CheckpointEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())

	bench := benchText(t, 5, 3)
	const submitters, perSubmitter = 4, 8
	ids := make(chan string, submitters*perSubmitter)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				id, err := s.Submit(Spec{
					Name:        fmt.Sprintf("g%d-%d", g, i),
					Netlist:     bench,
					MaxFaults:   8,
					FaultBudget: 200_000,
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids <- id
			}
		}(g)
	}
	// Cancellers and status readers run against the live pool.
	var cwg sync.WaitGroup
	stopChaos := make(chan struct{})
	seen := make(chan string, submitters*perSubmitter)
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		rng := rand.New(rand.NewSource(1))
		for id := range ids {
			seen <- id
			if rng.Intn(2) == 0 {
				err := s.Cancel(id)
				if err != nil && !errors.Is(err, ErrTerminal) {
					t.Errorf("cancel %s: %v", id, err)
				}
			}
		}
	}()
	for g := 0; g < 3; g++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				select {
				case <-stopChaos:
					return
				default:
					for _, st := range s.List() {
						if _, err := s.Status(st.ID); err != nil && !errors.Is(err, ErrNotFound) {
							t.Errorf("status %s: %v", st.ID, err)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(ids)
	waitJobs(t, s, 2*time.Minute, func(st JobStatus) bool { return st.State.Terminal() })
	close(stopChaos)
	cwg.Wait()

	unique := map[string]bool{}
	for len(seen) > 0 {
		unique[<-seen] = true
	}
	if len(unique) != submitters*perSubmitter {
		t.Fatalf("%d unique job ids for %d submissions", len(unique), submitters*perSubmitter)
	}
	var done, cancelled int
	for _, st := range s.List() {
		if !unique[st.ID] {
			t.Errorf("job %s was never submitted by this test", st.ID)
		}
		switch st.State {
		case Done:
			done++
			if st.Result == nil {
				t.Errorf("job %s done without result", st.ID)
			}
			if st.Runs != 1 {
				t.Errorf("done job %s ran %d times", st.ID, st.Runs)
			}
		case Cancelled:
			cancelled++
			if st.Runs > 1 {
				t.Errorf("cancelled job %s ran %d times", st.ID, st.Runs)
			}
		default:
			t.Errorf("job %s settled as %s (%s)", st.ID, st.State, st.Error)
		}
	}
	if done+cancelled != submitters*perSubmitter {
		t.Errorf("%d done + %d cancelled != %d submitted", done, cancelled, submitters*perSubmitter)
	}
	got := s.metrics.jobsDone.Load() + s.metrics.jobsCancelled.Load() + s.metrics.jobsFailed.Load()
	if got != int64(submitters*perSubmitter) {
		t.Errorf("metrics count %d finished jobs, want %d", got, submitters*perSubmitter)
	}
	t.Logf("%d done, %d cancelled under contention", done, cancelled)
}

// TestServerRecoverQuarantinesCorruptJob: a job directory whose
// records are inconsistent is quarantined — terminal Failed with the
// inconsistency as the reason — instead of failing the whole store or
// silently re-running.
func TestServerRecoverQuarantinesCorruptJob(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(Spec{Netlist: benchText(t, 5, 3), MaxFaults: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitJobs(t, s, time.Minute, func(st JobStatus) bool { return st.State.Terminal() })
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A terminal marker claiming a live state is corruption.
	if err := s.writeJSON(dir+"/"+id+"/terminal.json", terminalFile{State: Running}); err != nil {
		t.Fatal(err)
	}
	s2, err := New(dir, Options{Workers: 1})
	if err != nil {
		t.Fatalf("recover failed the whole store over one damaged job: %v", err)
	}
	defer s2.Close(context.Background())
	st, err := s2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != Failed || !st.Quarantined {
		t.Errorf("damaged job recovered as %s (quarantined=%v), want quarantined failed", st.State, st.Quarantined)
	}
	if !strings.Contains(st.Error, "quarantined") {
		t.Errorf("quarantined job error %q does not state the quarantine", st.Error)
	}
}
