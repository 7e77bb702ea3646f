package campaign

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"seqatpg/internal/atpg"
	"seqatpg/internal/atpg/hitec"
	"seqatpg/internal/atpg/sest"
	"seqatpg/internal/bench"
	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/retime"
)

// strideSample deterministically thins a fault list to at most n
// faults spread over the whole universe.
func strideSample(faults []fault.Fault, n int) []fault.Fault {
	if len(faults) <= n {
		return faults
	}
	out := make([]fault.Fault, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, faults[i*len(faults)/n])
	}
	return out
}

// flushOf is the reset-hold prefix a circuit needs (at least 1).
func flushOf(t *testing.T, c *netlist.Circuit) int {
	t.Helper()
	n, err := retime.FlushLength(c)
	if err != nil {
		t.Fatal(err)
	}
	return max(n, 1)
}

// presetConfig builds a named engine preset for c at a per-fault
// budget of scale x gates.
func presetConfig(t *testing.T, preset string, c *netlist.Circuit, scale int64) atpg.Config {
	t.Helper()
	flush, budget := flushOf(t, c), scale*int64(c.NumGates())
	switch preset {
	case "hitec":
		return hitec.DefaultConfig(flush, budget)
	case "sest-shared":
		return sest.SharedConfig(flush, budget)
	case "sest-cdcl":
		return sest.CdclConfig(flush, budget)
	}
	t.Fatalf("unknown preset %q", preset)
	return atpg.Config{}
}

// assertSameCampaign requires two finished campaigns to agree on
// everything a resume must reproduce: verdicts, test vectors, the pass
// count, every Stats field (counters included) and the traversed
// states.
func assertSameCampaign(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Interrupted {
		t.Fatalf("%s: still interrupted", label)
	}
	if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
		t.Errorf("%s: outcomes diverge", label)
	}
	if !reflect.DeepEqual(got.Tests, want.Tests) {
		t.Errorf("%s: tests (%d) diverge from reference (%d)", label, len(got.Tests), len(want.Tests))
	}
	if got.Passes != want.Passes {
		t.Errorf("%s: %d passes, reference %d", label, got.Passes, want.Passes)
	}
	if got.Stats.Counters != want.Stats.Counters {
		t.Errorf("%s: counters %+v, reference %+v", label, got.Stats.Counters, want.Stats.Counters)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("%s: stats %+v, reference %+v", label, got.Stats, want.Stats)
	}
}

// TestCampaignCancelResumeSweep cancels a checkpointed campaign at the
// start of its Nth fault attempt, for every N the campaign makes (a
// fixed stride under -short), resumes it from the checkpoint, and
// requires the resumed Result to equal the uninterrupted one. It runs
// the hitec and sest-cdcl presets with two retries on dk16.ji.sd and
// its retimed circuit, at a budget that aborts faults into both retry
// passes, so cancels land in every pass and at the pass boundaries.
func TestCampaignCancelResumeSweep(t *testing.T) {
	orig, re, _ := suitePair(t)
	stride := 1
	if testing.Short() {
		stride = 5
	}
	for _, c := range []*netlist.Circuit{orig, re} {
		faults := strideSample(fault.CollapsedUniverse(c), 20)
		for _, preset := range []string{"hitec", "sest-cdcl"} {
			t.Run(c.Name+"/"+preset, func(t *testing.T) {
				base := Config{Engine: presetConfig(t, preset, c, 10), Retries: 2, FS: nosyncFS}
				attempts := 0
				counted := base
				counted.Hook = func(int, fault.Fault) { attempts++ }
				ref, err := Run(context.Background(), c, faults, counted)
				if err != nil {
					t.Fatal(err)
				}
				if ref.Passes < 2 {
					t.Fatalf("reference ran %d passes; the sweep needs a retry pass", ref.Passes)
				}
				t.Logf("%d attempts over %d passes, %d aborted", attempts, ref.Passes, ref.Stats.Aborted)
				for n := 1; n <= attempts; n += stride {
					ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
					ctx, cancel := context.WithCancel(context.Background())
					cfg := base
					cfg.CheckpointPath = ckpt
					seen := 0
					cfg.Hook = func(int, fault.Fault) {
						if seen++; seen == n {
							cancel()
						}
					}
					part, err := Run(ctx, c, faults, cfg)
					cancel()
					if err != nil {
						t.Fatalf("cancel@%d: %v", n, err)
					}
					if !part.Interrupted {
						t.Fatalf("cancel@%d: campaign finished despite the cancel", n)
					}
					cfg = base
					cfg.CheckpointPath = ckpt
					cfg.Resume = true
					res, err := Run(context.Background(), c, faults, cfg)
					if err != nil {
						t.Fatalf("resume after cancel@%d: %v", n, err)
					}
					if !res.Resumed {
						t.Errorf("cancel@%d: resume did not start from the checkpoint", n)
					}
					assertSameCampaign(t, fmt.Sprintf("cancel@%d", n), res, ref)
				}
			})
		}
	}
}

// suiteCircuits builds the paper's 12 suite circuits: the first
// bench.PairSpecs pair of each machine, original and retimed.
func suiteCircuits(t *testing.T) []*netlist.Circuit {
	t.Helper()
	s := bench.NewSuite(bench.QuickBudget())
	seen := map[string]bool{}
	var out []*netlist.Circuit
	for _, spec := range bench.PairSpecs() {
		if seen[spec.FSM] {
			continue
		}
		seen[spec.FSM] = true
		p, err := s.Pair(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p.Orig.Circuit, p.Re.Circuit)
	}
	return out
}

// serialResult is what the serial pass loop produced: the campaign
// result, its Log lines, the detections its retry passes made and how
// many of its passes the whole-pass cap cut short.
type serialResult struct {
	res           *Result
	lines         []string
	retryDetected int
	cut           int
}

// serialRun replays the pass loop campaign.Run had before its passes
// overlapped: pass p is a fresh atpg.New(passConfig(p)) running
// ResumeFaults over the previous pass's Aborted list, one pass after
// the other, with Hook and Log wired as Run wires them.
func serialRun(t *testing.T, c *netlist.Circuit, faults []fault.Fault, cfg Config) serialResult {
	t.Helper()
	st := freshState(len(faults))
	var out serialResult
	for st.pass <= cfg.Retries && len(st.passFaults) > 0 {
		ecfg := cfg.passConfig(st.pass)
		e, err := atpg.New(c, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetFaultSimWorkers(cfg.fsimWorkers())
		if hook := cfg.Hook; hook != nil {
			local := st.passFaults
			e.TestHook = func(i int, f fault.Fault) { hook(local[i], f) }
		}
		sub := make([]fault.Fault, len(st.passFaults))
		for k, idx := range st.passFaults {
			sub[k] = faults[idx]
		}
		out.lines = append(out.lines, fmt.Sprintf("campaign: pass %d: %d faults, per-fault budget %d", st.pass, len(sub), ecfg.FaultBudget))
		res, _, err := e.ResumeFaults(context.Background(), sub, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.pass > 0 {
			out.retryDetected += res.Stats.Detected
		}
		if ecfg.TotalBudget > 0 && res.Stats.Effort >= ecfg.TotalBudget {
			out.cut++
		}
		var aborted []int
		for k, idx := range st.passFaults {
			st.outcomes[idx] = res.Outcomes[k]
			st.done[idx] = true
			if res.Outcomes[k] == atpg.Aborted {
				aborted = append(aborted, idx)
			}
		}
		st.agg.Add(res.Stats.Counters)
		for s := range res.Stats.StatesTraversed {
			st.states[s] = true
		}
		st.tests = append(st.tests, res.Tests...)
		for _, cr := range res.Crashes {
			remapped := *cr
			remapped.Index = st.passFaults[cr.Index]
			st.crashes = append(st.crashes, &remapped)
			out.lines = append(out.lines, fmt.Sprintf("campaign: %v", remapped.Error()))
		}
		st.passFaults = aborted
		st.pass++
	}
	out.res = assemble(st, false)
	return out
}

// crashKeys renders crashes without their stacks, which name goroutines.
func crashKeys(crashes []*atpg.FaultCrash) []string {
	var out []string
	for _, cr := range crashes {
		out = append(out, cr.Error())
	}
	return out
}

// serialCap is the whole-pass effort cap of the serial reference test:
// low enough that it cuts some passes short.
const serialCap = 2_000_000

// TestCampaignMatchesSerialReference runs campaign.Run against the
// serial pass loop on the 12 suite circuits (a 30-fault stride sample
// each, bench.QuickBudget's per-fault budget, two retries) under the
// hitec, sest-shared and sest-cdcl presets, with a whole-pass cap low
// enough to cut passes short and one fault whose search panics, at
// GOMAXPROCS 1 and 2. Outcomes, test vector bytes, crashes, passes,
// counters, traversed states and the Log lines must all be identical,
// and some retry pass must detect a fault, so an overlapped pass runs
// its drop pass.
func TestCampaignMatchesSerialReference(t *testing.T) {
	circuits := suiteCircuits(t)
	presets := []string{"hitec", "sest-shared", "sest-cdcl"}
	procs := []int{1, 2}
	if testing.Short() {
		circuits = circuits[:2]
		procs = []int{2}
	}
	const crashAt = 7
	retryDetected, cut := 0, 0
	for _, n := range procs {
		prev := runtime.GOMAXPROCS(n)
		for _, c := range circuits {
			faults := strideSample(fault.CollapsedUniverse(c), 30)
			for _, preset := range presets {
				name := fmt.Sprintf("procs%d/%s/%s", n, c.Name, preset)
				cfg := Config{Engine: presetConfig(t, preset, c, bench.QuickBudget().EffortScale), Retries: 2}
				cfg.Engine.TotalBudget = serialCap
				cfg.Hook = func(i int, _ fault.Fault) {
					if i == crashAt {
						panic("injected search failure")
					}
				}
				want := serialRun(t, c, faults, cfg)
				retryDetected += want.retryDetected
				cut += want.cut
				var lines []string
				cfg.Log = func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
				got, err := Run(context.Background(), c, faults, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				assertSameCampaign(t, name, got, want.res)
				if !reflect.DeepEqual(encodeTests(got.Tests), encodeTests(want.res.Tests)) {
					t.Errorf("%s: test vector bytes diverge", name)
				}
				if !reflect.DeepEqual(crashKeys(got.Crashes), crashKeys(want.res.Crashes)) {
					t.Errorf("%s: crashes %q, reference %q", name, crashKeys(got.Crashes), crashKeys(want.res.Crashes))
				}
				if !reflect.DeepEqual(lines, want.lines) {
					t.Errorf("%s: log lines\n%q\nreference\n%q", name, lines, want.lines)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	if retryDetected == 0 {
		t.Error("no retry pass detected a fault, so no overlapped pass ran its drop pass")
	}
	if cut == 0 {
		t.Error("the whole-pass cap never cut a pass short")
	}
	t.Logf("retry passes detected %d faults; the cap cut %d passes", retryDetected, cut)
}

// overlapWorkload is a campaign whose passes overlap: hitec on the
// retimed dk16.ji.sd at a budget that aborts most faults into both
// retry passes.
func overlapWorkload(t *testing.T) (*netlist.Circuit, []fault.Fault, Config) {
	t.Helper()
	_, re, _ := suitePair(t)
	return re, strideSample(fault.CollapsedUniverse(re), 40), Config{Engine: presetConfig(t, "hitec", re, 10), Retries: 2}
}

// TestCampaignSerializesHookAndLog: Run's passes overlap, but no two
// Hook or Log calls do. Hook calls of different passes interleave; the
// test logs whether they did.
func TestCampaignSerializesHookAndLog(t *testing.T) {
	c, faults, cfg := overlapWorkload(t)
	var inFlight, overlaps atomic.Int32
	enter := func() {
		if inFlight.Add(1) > 1 {
			overlaps.Add(1)
		}
		for k := 0; k < 20; k++ {
			runtime.Gosched()
		}
		inFlight.Add(-1)
	}
	seen := map[int]bool{}
	interleaved := false
	retrying := false
	cfg.Hook = func(i int, _ fault.Fault) {
		enter()
		// A fault's second attempt is a retry; a first attempt after a
		// retry began is pass 0 still running.
		if seen[i] {
			retrying = true
		} else if retrying {
			interleaved = true
		}
		seen[i] = true
	}
	cfg.Log = func(string, ...any) { enter() }
	res, err := Run(context.Background(), c, faults, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes < 2 {
		t.Fatalf("%d passes; the test needs a retry pass", res.Passes)
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d Hook/Log calls overlapped another", n)
	}
	t.Logf("hooks of different passes interleaved: %v", interleaved)
}

// settleGoroutines waits until the goroutine count is back at base; a
// goroutine that has signalled its WaitGroup may still be exiting.
func settleGoroutines(t *testing.T, label string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines after Run, baseline %d\n%s", label, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCampaignLeavesNoGoroutines: once Run returns, every pass it
// started has exited — after a completed run, a cancelled one, and one
// whose retry pass crashes on a fault.
func TestCampaignLeavesNoGoroutines(t *testing.T) {
	c, faults, base := overlapWorkload(t)
	ref, err := Run(context.Background(), c, faults, base)
	if err != nil {
		t.Fatal(err)
	}
	retried := -1
	for i, o := range ref.Outcomes {
		if o == atpg.Aborted {
			retried = i
			break
		}
	}
	if retried < 0 {
		t.Fatal("no fault reached a retry pass")
	}
	baseline := runtime.NumGoroutine()

	if _, err := Run(context.Background(), c, faults, base); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, "completed", baseline)

	for _, n := range []int{1, 10, 30} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := base
		attempts := 0
		cfg.Hook = func(int, fault.Fault) {
			if attempts++; attempts == n {
				cancel()
			}
		}
		res, err := Run(ctx, c, faults, cfg)
		cancel()
		if err != nil || !res.Interrupted {
			t.Fatalf("cancel@%d: interrupted=%v err=%v", n, res != nil && res.Interrupted, err)
		}
		settleGoroutines(t, fmt.Sprintf("cancel@%d", n), baseline)
	}

	cfg := base
	seen := 0
	cfg.Hook = func(i int, _ fault.Fault) {
		if i == retried {
			if seen++; seen == 2 {
				panic("injected retry-pass failure")
			}
		}
	}
	res, err := Run(context.Background(), c, faults, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashes) != 1 || res.Crashes[0].Index != retried || res.Outcomes[retried] != atpg.Crashed {
		t.Fatalf("retry-pass crash not isolated: %d crashes, outcome %v", len(res.Crashes), res.Outcomes[retried])
	}
	settleGoroutines(t, "crash", baseline)
}

// stubLadder builds the ladder Run builds for a fresh campaign over n
// faults, with every pass run by stub.
func stubLadder(n, retries int, stub func(l *ladder, ps *pass) (*atpg.Result, error)) *ladder {
	faults := make([]fault.Fault, n)
	l := &ladder{faults: faults, cfg: Config{Retries: retries}, st: freshState(n), every: time.Hour, lastWrite: time.Now()}
	l.runPass = func(ps *pass, _ *atpg.Snapshot) (*atpg.Result, *atpg.Snapshot, error) {
		res, err := stub(l, ps)
		return res, nil, err
	}
	return l
}

// completed is a stub pass result: every fault of the pass detected
// except the ones it aborted.
func completed(ps *pass, aborted ...int) *atpg.Result {
	res := &atpg.Result{Outcomes: make([]atpg.Outcome, len(ps.idx))}
	for k := range res.Outcomes {
		res.Outcomes[k] = atpg.Detected
	}
	for _, k := range aborted {
		res.Outcomes[k] = atpg.Aborted
	}
	return res
}

// TestCampaignReportsLowestFailingPass: when several passes fail, Run
// reports the lowest-numbered one, whatever order they failed in, and
// a pass that panics re-panics on Run's goroutine once every earlier
// pass is merged. Each case ends with no pass goroutine left.
func TestCampaignReportsLowestFailingPass(t *testing.T) {
	errs := []error{errors.New("pass 0 failed"), errors.New("pass 1 failed"), errors.New("pass 2 failed")}
	// Each pass feeds its first fault on, waits for the pass it started
	// to finish, then ends as fail says.
	chain := func(fail func(p int) bool) func(l *ladder, ps *pass) (*atpg.Result, error) {
		return func(l *ladder, ps *pass) (*atpg.Result, error) {
			if ps.p < 2 {
				l.feed(ps, ps.orig(0))
				<-ps.next.done
			}
			if fail(ps.p) {
				return nil, errs[ps.p]
			}
			return completed(ps, 0), nil
		}
	}
	baseline := runtime.NumGoroutine()
	for _, tc := range []struct {
		name   string
		failed []int
		want   int
	}{
		{"all-fail-top-first", []int{0, 1, 2}, 0},
		{"upper-two-fail", []int{1, 2}, 1},
		{"top-fails", []int{2}, 2},
	} {
		fail := func(p int) bool { return slices.Contains(tc.failed, p) }
		_, err := stubLadder(3, 2, chain(fail)).run(context.Background())
		if !errors.Is(err, errs[tc.want]) {
			t.Errorf("%s: Run reported %v, want %v", tc.name, err, errs[tc.want])
		}
		settleGoroutines(t, tc.name, baseline)
	}

	// Pass 1 panics while pass 0 is still running; pass 0 finishes.
	l := stubLadder(3, 2, func(l *ladder, ps *pass) (*atpg.Result, error) {
		if ps.p == 1 {
			panic("pass 1 panicked")
		}
		l.feed(ps, ps.orig(0))
		<-ps.next.done
		return completed(ps, 0), nil
	})
	func() {
		defer func() {
			if r := recover(); r != "pass 1 panicked" {
				t.Errorf("Run's panic is %v, want pass 1's", r)
			}
		}()
		l.run(context.Background())
		t.Error("Run returned despite a panicking pass")
	}()
	if l.st.pass != 1 {
		t.Errorf("pass 0 was not merged before the panic surfaced (campaign at pass %d)", l.st.pass)
	}
	settleGoroutines(t, "panic", baseline)
}
