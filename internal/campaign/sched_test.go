package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"seqatpg/internal/atpg"
	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/predict"
	"seqatpg/internal/retime"
)

// sortedTests renders the generated test sequences order-independently:
// scheduling legitimately permutes Result.Tests (like resharding does),
// so invariance is pinned on the multiset of sequences, not their order.
func sortedTests(res *Result) []string {
	out := make([]string, len(res.Tests))
	for i, seq := range res.Tests {
		out[i] = fmt.Sprintf("%v", seq)
	}
	sort.Strings(out)
	return out
}

// runScheduled builds the scheduled plan and executes it, the path
// cmd/atpg -schedule takes.
func runScheduled(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, cfg Config, sched SchedConfig) (*Result, error) {
	plan, err := PlanScheduled(c, faults, cfg, sched)
	if err != nil {
		return nil, err
	}
	return Execute(ctx, c, faults, plan, nil)
}

func retimedC(t *testing.T) (*netlist.Circuit, int) {
	t.Helper()
	orig := synthC(t, 9, 12)
	re, err := retime.Backward(orig, netlist.DefaultLibrary(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return re.Circuit, re.FlushCycles
}

func schedCfg(t *testing.T) (Config, *netlist.Circuit, []fault.Fault) {
	t.Helper()
	c, flush := retimedC(t)
	faults := fault.CollapsedUniverse(c)
	if len(faults) > 48 {
		faults = faults[:48]
	}
	cfg := Config{Engine: engineCfg(), Retries: 2}
	cfg.Engine.FaultBudget = 20_000
	cfg.Engine.FlushCycles = flush
	return cfg, c, faults
}

// TestScheduledMatchesSharded is the core soundness pin: a scheduled
// campaign without rung budgets is a pure reordering, so its verdicts,
// stats (including charged effort) and generated-test multiset are
// identical to the unscheduled normalized run.
func TestScheduledMatchesSharded(t *testing.T) {
	cfg, c, faults := schedCfg(t)

	ref, err := Execute(context.Background(), c, faults, PlanRoundRobin(cfg, len(faults), 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := runScheduled(context.Background(), c, faults, cfg, SchedConfig{WithDensity: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sched.Outcomes, ref.Outcomes) {
		t.Error("scheduled outcomes diverge from the unscheduled run")
	}
	if !reflect.DeepEqual(sched.Stats, ref.Stats) {
		t.Errorf("scheduled stats diverge (pure reordering must preserve them):\n got %+v\nwant %+v", sched.Stats, ref.Stats)
	}
	if !reflect.DeepEqual(sortedTests(sched), sortedTests(ref)) {
		t.Error("scheduled test multiset diverges from the unscheduled run")
	}
}

// hardMarker is a test predictor that scores a chosen set of faults as
// maximally hard and everything else as trivially easy, making queue
// routing and rung assignment deterministic for the test.
type hardMarker struct{ hard map[int]bool }

func (h hardMarker) Name() string { return "test-hard-marker" }
func (h hardMarker) Score(fs *predict.FeatureSet, i int) float64 {
	if h.hard[i] {
		return 1e15
	}
	return 1
}

// TestScheduledRungBudgetsVerdictInvariant: starting predicted-hard
// faults high on the ladder must keep every verdict and every generated
// test identical — the final per-fault budget is unchanged — while
// strictly reducing charged effort (the skipped low rungs were pure
// waste on faults that were going to out-budget them anyway).
func TestScheduledRungBudgetsVerdictInvariant(t *testing.T) {
	cfg, c, faults := schedCfg(t)

	ref, err := Execute(context.Background(), c, faults, PlanRoundRobin(cfg, len(faults), 1), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Identify faults the unscheduled ladder re-attacked: any fault
	// still aborted after pass 0 paid for low rungs it out-budgeted.
	pass0cfg := cfg
	pass0cfg.Retries = 0
	pass0, err := Execute(context.Background(), c, faults, PlanRoundRobin(pass0cfg, len(faults), 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	hard := map[int]bool{}
	for i, o := range pass0.Outcomes {
		if o == atpg.Aborted {
			hard[i] = true
		}
	}
	if len(hard) == 0 {
		t.Fatal("budget not tight enough: pass 0 aborted nothing, the test proves nothing")
	}

	sched, err := runScheduled(context.Background(), c, faults, cfg, SchedConfig{
		Predictor:   hardMarker{hard: hard},
		RungBudgets: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sched.Outcomes, ref.Outcomes) {
		t.Error("rung budgets changed verdicts — prediction decided an outcome")
	}
	if sched.Stats.Detected != ref.Stats.Detected || sched.Stats.Aborted != ref.Stats.Aborted ||
		sched.Stats.Redundant != ref.Stats.Redundant || sched.Stats.Crashed != ref.Stats.Crashed {
		t.Errorf("outcome counters diverge: %+v vs %+v", sched.Stats, ref.Stats)
	}
	if !reflect.DeepEqual(sortedTests(sched), sortedTests(ref)) {
		t.Error("rung budgets changed the generated test multiset")
	}
	if sched.Stats.Effort >= ref.Stats.Effort {
		t.Errorf("rung budgets did not reduce charged effort: %d >= %d", sched.Stats.Effort, ref.Stats.Effort)
	}
	t.Logf("charged effort %d -> %d (%.1f%%), %d faults started high",
		ref.Stats.Effort, sched.Stats.Effort,
		100*float64(sched.Stats.Effort)/float64(ref.Stats.Effort), len(hard))
}

// TestScheduledResumeExact: resume-exactness with scheduling enabled —
// a scheduled campaign interrupted any number of times and resumed from
// its per-queue checkpoints finishes byte-identical to one that was
// never stopped. The plan is recomputed on every resume; deterministic
// feature extraction is what makes the recomputed queues (and so the
// per-queue fingerprints) line up.
func TestScheduledResumeExact(t *testing.T) {
	cfg, c, faults := schedCfg(t)
	sched := SchedConfig{RungBudgets: true}

	ref, err := runScheduled(context.Background(), c, faults, cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Interrupted {
		t.Fatal("reference scheduled campaign reported interrupted")
	}

	ckpt := filepath.Join(t.TempDir(), "sched.ckpt")
	var res *Result
	rounds := 0
	for cancelAfter := 2; ; cancelAfter += 2 {
		if rounds++; rounds > 200 {
			t.Fatal("scheduled campaign made no progress across 200 interrupted rounds")
		}
		ctx, cancel := context.WithCancel(context.Background())
		rcfg := cfg
		rcfg.CheckpointPath = ckpt
		rcfg.CheckpointEvery = time.Nanosecond
		rcfg.Resume = true
		rcfg.FS = nosyncFS
		var attempts atomic.Int32
		rcfg.Hook = func(i int, f fault.Fault) {
			// Queues run concurrently; the hook must be race-free.
			if attempts.Add(1) >= int32(cancelAfter) {
				cancel()
			}
		}
		res, err = runScheduled(ctx, c, faults, rcfg, sched)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.Interrupted {
			continue
		}
		break
	}
	t.Logf("final scheduled run completed after %d interrupted rounds", rounds-1)
	if rounds < 3 {
		t.Fatalf("only %d rounds ran; interruption path not exercised", rounds)
	}
	if !reflect.DeepEqual(res.Outcomes, ref.Outcomes) {
		t.Error("resumed scheduled outcomes diverge from the uninterrupted run")
	}
	if !reflect.DeepEqual(res.Stats, ref.Stats) {
		t.Errorf("resumed scheduled stats diverge:\n got %+v\nwant %+v", res.Stats, ref.Stats)
	}
	if !reflect.DeepEqual(sortedTests(res), sortedTests(ref)) {
		t.Error("resumed scheduled test multiset diverges")
	}
}

// TestScheduledForeignPlanRejected: prediction knobs are excluded from
// the checkpoint fingerprint, so what protects a resume is the binding
// to each queue's exact fault sublist — a predictor that routes faults
// differently must be rejected loudly, never silently merged into the
// wrong queue's progress.
func TestScheduledForeignPlanRejected(t *testing.T) {
	cfg, c, faults := schedCfg(t)
	ckpt := filepath.Join(t.TempDir(), "sched.ckpt")
	markA := hardMarker{hard: map[int]bool{1: true, 3: true}}
	markB := hardMarker{hard: map[int]bool{1: true, 3: true, 5: true}}

	ctx, cancel := context.WithCancel(context.Background())
	wcfg := cfg
	wcfg.CheckpointPath = ckpt
	wcfg.CheckpointEvery = time.Nanosecond
	wcfg.FS = nosyncFS
	var attempts atomic.Int32
	wcfg.Hook = func(i int, f fault.Fault) {
		if attempts.Add(1) >= 4 {
			cancel()
		}
	}
	res, err := runScheduled(ctx, c, faults, wcfg, SchedConfig{Predictor: markA})
	cancel()
	if err != nil || !res.Interrupted {
		t.Fatalf("setup: res=%+v err=%v", res, err)
	}

	// Same predictor resumes fine (the recomputed plan matches).
	rcfg := cfg
	rcfg.CheckpointPath = ckpt
	rcfg.Resume = true
	rcfg.FS = nosyncFS
	if _, err := runScheduled(context.Background(), c, faults, rcfg, SchedConfig{Predictor: markA}); err != nil {
		t.Fatalf("matching plan failed to resume: %v", err)
	}

	// Re-record a checkpoint, then resume with a predictor that moves
	// fault 5 to the hard queue: the easy queue's sublist no longer
	// matches its checkpoint.
	ctx, cancel = context.WithCancel(context.Background())
	attempts.Store(0)
	res, err = runScheduled(ctx, c, faults, wcfg, SchedConfig{Predictor: markA})
	cancel()
	if err != nil || !res.Interrupted {
		t.Fatalf("re-record: res=%+v err=%v", res, err)
	}
	if _, err := runScheduled(context.Background(), c, faults, rcfg, SchedConfig{Predictor: markB}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("foreign plan resumed: err = %v, want ErrCheckpointMismatch", err)
	}
	// Leftover queue checkpoints from rejected attempts are fine; the
	// temp dir is discarded. Just ensure the checkpoint file from the
	// interrupted run still exists for the error path above.
	if _, err := os.Stat(ckpt + ".schedq0-of-2"); err != nil {
		t.Logf("note: easy-queue checkpoint stat: %v", err)
	}
}

// TestScheduledRungBudgetsWithoutRetries: with no escalation passes
// there are no rungs to skip, so rung budgets must leave even the
// charged effort of the predicted-hard queue identical to the
// unscheduled run — the hard queue may not attack at a budget the
// ladder never reaches.
func TestScheduledRungBudgetsWithoutRetries(t *testing.T) {
	cfg, c, faults := schedCfg(t)
	cfg.Retries = 0

	ref, err := Execute(context.Background(), c, faults, PlanRoundRobin(cfg, len(faults), 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	hard := map[int]bool{}
	for i, o := range ref.Outcomes {
		if o == atpg.Aborted {
			hard[i] = true
		}
	}
	if len(hard) == 0 {
		t.Fatal("budget not tight enough: nothing aborted, the test proves nothing")
	}
	sched, err := runScheduled(context.Background(), c, faults, cfg, SchedConfig{
		Predictor:   hardMarker{hard: hard},
		RungBudgets: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sched.Outcomes, ref.Outcomes) {
		t.Error("rung budgets without retries changed verdicts")
	}
	if !reflect.DeepEqual(sched.Stats, ref.Stats) {
		t.Errorf("rung budgets without retries changed stats:\n got %+v\nwant %+v", sched.Stats, ref.Stats)
	}
}
