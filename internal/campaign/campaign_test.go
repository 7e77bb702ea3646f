package campaign

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"seqatpg/internal/atpg"
	"seqatpg/internal/encode"
	"seqatpg/internal/fault"
	"seqatpg/internal/fsm"
	"seqatpg/internal/ioguard"
	"seqatpg/internal/netlist"
	"seqatpg/internal/retime"
	"seqatpg/internal/sim"
	"seqatpg/internal/synth"
)

// nosyncFS skips physical fsyncs in checkpoint-heavy tests. Every
// property asserted in this package is observable in-process (rename
// atomicity, generation rotation, corruption fallback, byte-identical
// resume) and independent of flushing, which only matters across power
// loss — and real fsyncs at nanosecond checkpoint intervals dominate
// test runtime, especially under the race detector.
var nosyncFS = ioguard.NoSync(ioguard.OS)

func synthC(t testing.TB, states int, seed int64) *netlist.Circuit {
	t.Helper()
	m, err := fsm.Generate(fsm.GenSpec{Name: "cg", Inputs: 3, Outputs: 2, States: states, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	r, err := synth.Synthesize(m, synth.Options{
		Algorithm: encode.Combined, Script: synth.Rugged, UseUnreachableDC: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r.Circuit
}

func engineCfg() atpg.Config {
	return atpg.Config{
		Name:           "campaign-test",
		MaxFrames:      8,
		MaxBackSteps:   40,
		BacktrackLimit: 4000,
		FaultBudget:    50_000_000,
		FlushCycles:    1,
	}
}

// TestCampaignMatchesSingleEngineRun: with no retries and no
// checkpointing, a campaign is exactly one engine run.
func TestCampaignMatchesSingleEngineRun(t *testing.T) {
	c := synthC(t, 7, 5)
	faults := fault.CollapsedUniverse(c)[:40]
	e, err := atpg.New(c, engineCfg())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.RunFaults(faults)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), c, faults, Config{Engine: engineCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Stats, ref.Stats) {
		t.Errorf("campaign stats %+v != engine stats %+v", res.Stats, ref.Stats)
	}
	if !reflect.DeepEqual(res.Outcomes, ref.Outcomes) {
		t.Error("campaign outcomes diverge from a direct engine run")
	}
	if res.Passes != 1 || res.Interrupted || res.Resumed {
		t.Errorf("unexpected run shape: %+v", res)
	}
}

// TestCampaignInterruptResumeExact is the tentpole guarantee: a
// campaign that is interrupted any number of times and resumed from its
// on-disk checkpoint finishes with Stats, Outcomes and Tests identical
// to a campaign that was never stopped.
func TestCampaignInterruptResumeExact(t *testing.T) {
	c := synthC(t, 9, 12)
	faults := fault.CollapsedUniverse(c)
	if len(faults) > 60 {
		faults = faults[:60]
	}
	base := Config{Engine: engineCfg(), Retries: 2}
	// A tight budget plus the retry ladder makes the campaign actually
	// run multiple passes, so interruptions land in retry passes and at
	// pass boundaries too.
	base.Engine.FaultBudget = 30_000
	base.Engine.RandomSequences = 3
	base.Engine.RandomLength = 10
	base.Engine.Seed = 7

	ref, err := Run(context.Background(), c, faults, base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Interrupted {
		t.Fatal("reference campaign reported interrupted")
	}
	t.Logf("reference: %d passes, FE %.1f%%, %d aborted", ref.Passes, ref.Stats.FE(), ref.Stats.Aborted)

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	var res *Result
	rounds := 0
	for cancelAfter := 2; ; cancelAfter += 2 {
		if rounds++; rounds > 200 {
			t.Fatal("campaign made no progress across 200 interrupted rounds")
		}
		ctx, cancel := context.WithCancel(context.Background())
		cfg := base
		cfg.CheckpointPath = ckpt
		cfg.CheckpointEvery = time.Nanosecond
		cfg.Resume = true
		cfg.FS = nosyncFS
		attempts := 0
		cfg.Hook = func(i int, f fault.Fault) {
			if attempts++; attempts >= cancelAfter {
				cancel()
			}
		}
		res, err = Run(ctx, c, faults, cfg)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.Interrupted {
			if _, err := os.Stat(ckpt); err != nil {
				t.Fatalf("interrupted campaign left no checkpoint: %v", err)
			}
			continue
		}
		if rounds > 1 && !res.Resumed {
			t.Error("completed run did not report Resumed")
		}
		break
	}
	t.Logf("final run completed after %d interrupted rounds", rounds-1)
	if rounds < 3 {
		t.Fatalf("only %d rounds ran; interruption path not exercised", rounds)
	}

	if !reflect.DeepEqual(res.Stats, ref.Stats) {
		t.Errorf("resumed stats %+v != reference %+v", res.Stats, ref.Stats)
	}
	if !reflect.DeepEqual(res.Outcomes, ref.Outcomes) {
		t.Error("resumed outcomes diverge from reference")
	}
	if !reflect.DeepEqual(res.Tests, ref.Tests) {
		t.Errorf("resumed tests (%d) diverge from reference (%d)", len(res.Tests), len(ref.Tests))
	}
	if res.Passes != ref.Passes {
		t.Errorf("resumed ran %d passes, reference %d", res.Passes, ref.Passes)
	}
	// The finished campaign cleans up its checkpoint.
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("finished campaign left checkpoint behind (stat err %v)", err)
	}
}

// TestCampaignPartialResultCarriesProgress: an interrupted campaign
// reports the verdicts reached so far instead of discarding them.
func TestCampaignPartialResultCarriesProgress(t *testing.T) {
	c := synthC(t, 9, 12)
	faults := fault.CollapsedUniverse(c)[:40]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	attempts := 0
	res, err := Run(ctx, c, faults, Config{
		Engine: engineCfg(),
		Hook: func(i int, f fault.Fault) {
			if attempts++; attempts >= 12 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("campaign was not interrupted")
	}
	if res.Stats.Detected+res.Stats.Redundant == 0 {
		t.Error("partial campaign result carries no progress")
	}
	if got := res.Stats.Detected + res.Stats.Redundant + res.Stats.Aborted + res.Stats.Crashed; got != res.Stats.Total {
		t.Errorf("partial stats account for %d of %d faults", got, res.Stats.Total)
	}
}

// TestCampaignRejectsForeignCheckpoint: a checkpoint recorded under a
// different engine config or fault list must be refused loudly, never
// silently resumed.
func TestCampaignRejectsForeignCheckpoint(t *testing.T) {
	c := synthC(t, 7, 5)
	faults := fault.CollapsedUniverse(c)[:30]
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	// Record a checkpoint by interrupting a run.
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	res, err := Run(ctx, c, faults, Config{
		Engine:          engineCfg(),
		CheckpointPath:  ckpt,
		CheckpointEvery: time.Nanosecond,
		FS:              nosyncFS,
		Hook: func(i int, f fault.Fault) {
			if attempts++; attempts >= 5 {
				cancel()
			}
		},
	})
	cancel()
	if err != nil || !res.Interrupted {
		t.Fatalf("setup: res=%+v err=%v", res, err)
	}

	// Different engine config.
	cfg := Config{Engine: engineCfg(), CheckpointPath: ckpt, Resume: true, FS: nosyncFS}
	cfg.Engine.MaxFrames = 4
	if _, err := Run(context.Background(), c, faults, cfg); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("mismatched engine config: err = %v, want ErrCheckpointMismatch", err)
	}
	// Different fault list.
	cfg = Config{Engine: engineCfg(), CheckpointPath: ckpt, Resume: true, FS: nosyncFS}
	if _, err := Run(context.Background(), c, faults[:29], cfg); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("mismatched fault list: err = %v, want ErrCheckpointMismatch", err)
	}
	// Matching everything resumes fine.
	cfg = Config{Engine: engineCfg(), CheckpointPath: ckpt, Resume: true, FS: nosyncFS}
	if _, err := Run(context.Background(), c, faults, cfg); err != nil {
		t.Errorf("matching resume failed: %v", err)
	}
}

// TestCampaignCrashIsolation: a panicking fault search surfaces as a
// Crashed outcome with diagnostics; every other fault still completes
// and crashed faults are not retried.
func TestCampaignCrashIsolation(t *testing.T) {
	c := synthC(t, 9, 12)
	faults := fault.CollapsedUniverse(c)[:30]
	crashAt := -1
	res, err := Run(context.Background(), c, faults, Config{
		Engine:  engineCfg(),
		Retries: 2,
		Hook: func(i int, f fault.Fault) {
			if i >= 3 && crashAt < 0 {
				crashAt = i
				panic("injected campaign crash")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("crash interrupted the campaign")
	}
	if res.Outcomes[crashAt] != atpg.Crashed {
		t.Fatalf("outcome[%d] = %v, want crashed", crashAt, res.Outcomes[crashAt])
	}
	if res.Stats.Crashed != 1 || len(res.Crashes) != 1 {
		t.Fatalf("Crashed=%d, %d records, want 1/1", res.Stats.Crashed, len(res.Crashes))
	}
	if res.Crashes[0].Index != crashAt {
		t.Errorf("crash recorded at index %d, want %d (original fault list)", res.Crashes[0].Index, crashAt)
	}
	if got := res.Stats.Detected + res.Stats.Redundant + res.Stats.Aborted + res.Stats.Crashed; got != len(faults) {
		t.Errorf("outcome sum %d != %d faults", got, len(faults))
	}
	if res.Stats.Detected == 0 {
		t.Error("no detections after the crash: isolation failed")
	}
}

// TestCampaignRetryEscalationImprovesFE: on a retimed circuit (the
// paper's hard case) with a deliberately tight first-pass budget, the
// 2x/4x escalation ladder must strictly raise fault efficiency.
func TestCampaignRetryEscalationImprovesFE(t *testing.T) {
	orig := synthC(t, 9, 12)
	re, err := retime.Backward(orig, netlist.DefaultLibrary(), 2)
	if err != nil {
		t.Fatal(err)
	}
	c := re.Circuit
	faults := fault.CollapsedUniverse(c)
	cfg := engineCfg()
	cfg.FaultBudget = 20_000
	cfg.FlushCycles = re.FlushCycles

	single, err := Run(context.Background(), c, faults, Config{Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := Run(context.Background(), c, faults, Config{Engine: cfg, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("single pass: FE %.2f%% (%d aborted); ladder: FE %.2f%% (%d aborted, %d passes)",
		single.Stats.FE(), single.Stats.Aborted, ladder.Stats.FE(), ladder.Stats.Aborted, ladder.Passes)
	if single.Stats.Aborted == 0 {
		t.Fatal("budget not tight enough: first pass aborted nothing, test proves nothing")
	}
	if ladder.Stats.FE() <= single.Stats.FE() {
		t.Errorf("retry escalation did not raise FE: %.2f%% -> %.2f%%", single.Stats.FE(), ladder.Stats.FE())
	}
	if ladder.Passes < 2 {
		t.Errorf("ladder ran only %d passes", ladder.Passes)
	}
}

// TestCampaignCheckpointRoundTrip exercises the JSON codec directly on
// a mid-pass state with learning caches and crash records.
func TestCampaignCheckpointRoundTrip(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "rt.ckpt")
	st := freshState(5)
	st.pass = 1
	st.passFaults = []int{1, 4}
	st.outcomes = []atpg.Outcome{atpg.Detected, atpg.Aborted, atpg.Redundant, atpg.Crashed, atpg.Aborted}
	st.done = []bool{true, true, true, true, true}
	st.agg = atpg.Counters{Effort: 123, Backtracks: 4, LearnHits: 5, LearnPrunes: 6, Unconfirmed: 1}
	st.states = map[uint64]bool{3: true, 9: true}
	st.tests = [][][]sim.Val{{{sim.V0, sim.V1, sim.VX}}}
	st.crashes = []*atpg.FaultCrash{{
		Index: 3,
		Fault: fault.Fault{Gate: 7, Pin: -1, SA: sim.V1},
		Panic: "boom", Stack: "stack",
	}}
	st.snap = &atpg.Snapshot{
		Next:       1,
		RandomDone: true,
		Status:     []byte{1, 0},
		Tests:      [][][]sim.Val{{{sim.V1, sim.V1, sim.V0}}},
		Stats: atpg.Stats{
			Total: 2, Detected: 1, Counters: atpg.Counters{Effort: 77},
			StatesTraversed: map[uint64]bool{5: true},
		},
		TotalLeft:   42,
		FailedCubes: []string{"0|01X"},
		Achieved: []atpg.AchievedState{{
			Fault: "g7/sa1|", Bits: 5, Seq: [][]sim.Val{{sim.V1, sim.V0, sim.VX}},
		}},
	}

	if err := saveState(ioguard.OS, ckpt, "fp", st); err != nil {
		t.Fatal(err)
	}
	got, fellBack, err := loadState(ioguard.OS, ckpt, "fp", 5)
	if err != nil {
		t.Fatal(err)
	}
	if fellBack {
		t.Error("pristine checkpoint loaded via the fallback generation")
	}
	if got == nil {
		t.Fatal("loadState returned nil for an existing checkpoint")
	}
	if !reflect.DeepEqual(got.outcomes, st.outcomes) || !reflect.DeepEqual(got.done, st.done) ||
		!reflect.DeepEqual(got.passFaults, st.passFaults) || got.pass != st.pass {
		t.Errorf("campaign state did not round-trip: %+v vs %+v", got, st)
	}
	if got.agg != st.agg {
		t.Errorf("agg %+v != %+v", got.agg, st.agg)
	}
	if !reflect.DeepEqual(got.states, st.states) || !reflect.DeepEqual(got.tests, st.tests) {
		t.Error("states/tests did not round-trip")
	}
	if !reflect.DeepEqual(got.crashes, st.crashes) {
		t.Errorf("crashes did not round-trip: %+v vs %+v", got.crashes[0], st.crashes[0])
	}
	if !reflect.DeepEqual(got.snap, st.snap) {
		t.Errorf("snapshot did not round-trip:\n got %+v\nwant %+v", got.snap, st.snap)
	}

	// Wrong fingerprint and wrong fault count are rejected.
	if _, _, err := loadState(ioguard.OS, ckpt, "other", 5); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("foreign fingerprint: err = %v", err)
	}
	if _, _, err := loadState(ioguard.OS, ckpt, "fp", 6); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("wrong fault count: err = %v", err)
	}
	// A missing file is a clean fresh start.
	if st, _, err := loadState(ioguard.OS, filepath.Join(t.TempDir(), "nope"), "fp", 5); st != nil || err != nil {
		t.Errorf("missing checkpoint: st=%v err=%v", st, err)
	}
}

// TestCheckpointRejectsNegativeCounters: a CRC-valid checkpoint whose
// across-pass or snapshot effort counters are negative is corruption.
// loadState falls back to the previous generation instead of resuming
// with (and later reporting) negative effort, and CheckCheckpointBytes
// refuses the payload a submitted Spec.Checkpoint would carry. The same
// holds for a version-3 checkpoint written while the engine still kept
// a shared failed-cube store: its non-empty shared_failed no longer
// decodes, so its CRC fails instead of the store being silently dropped.
func TestCheckpointRejectsNegativeCounters(t *testing.T) {
	const fp = "golden-fingerprint"
	stale, err := os.ReadFile(filepath.Join("testdata", "checkpoint_shared_failed.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(stale, []byte(`"shared_failed": [`)) {
		t.Fatal("checkpoint_shared_failed.json carries no shared_failed entries")
	}
	for _, tc := range []struct {
		name   string
		damage func(st *state)
		raw    []byte // replaces the saved current generation
	}{
		{"agg effort", func(st *state) { st.agg.Effort = -5 }, nil},
		{"agg unconfirmed", func(st *state) { st.agg.Unconfirmed = -1 }, nil},
		{"snapshot backtracks", func(st *state) { st.snap.Stats.Backtracks = -7 }, nil},
		{"snapshot restarts", func(st *state) { st.snap.Stats.Restarts = -1 }, nil},
		{"shared failed cubes", func(*state) {}, stale},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "neg.ckpt")
			good := goldenCheckpointState()
			if err := saveState(ioguard.OS, ckpt, fp, good); err != nil {
				t.Fatal(err)
			}
			bad := goldenCheckpointState()
			tc.damage(bad)
			if err := saveState(ioguard.OS, ckpt, fp, bad); err != nil {
				t.Fatal(err)
			}
			if tc.raw != nil {
				if err := os.WriteFile(ckpt, tc.raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, fellBack, err := loadState(ioguard.OS, ckpt, fp, len(good.outcomes))
			if err != nil {
				t.Fatal(err)
			}
			if !fellBack || got.agg != good.agg || got.snap.Stats.Counters != good.snap.Stats.Counters {
				t.Errorf("damaged checkpoint resumed: fellBack=%v agg=%+v snapshot=%+v", fellBack, got.agg, got.snap.Stats.Counters)
			}
			data, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckCheckpointBytes(data); err == nil {
				t.Error("CheckCheckpointBytes accepted the damaged checkpoint")
			}
			if err := os.Remove(ckpt + prevSuffix); err != nil {
				t.Fatal(err)
			}
			if _, _, err := loadState(ioguard.OS, ckpt, fp, len(good.outcomes)); err == nil || errors.Is(err, ErrCheckpointMismatch) {
				t.Errorf("without a previous generation: err = %v, want a corruption error", err)
			}
		})
	}
}

func TestCampaignConfigValidate(t *testing.T) {
	if err := (Config{Retries: -1}).Validate(); err == nil {
		t.Error("negative Retries accepted")
	}
	if err := (Config{CheckpointEvery: -time.Second}).Validate(); err == nil {
		t.Error("negative CheckpointEvery accepted")
	}
	if err := (Config{Resume: true}).Validate(); err == nil {
		t.Error("Resume without CheckpointPath accepted")
	}
	if err := (Config{Retries: 3, CheckpointPath: filepath.Join(t.TempDir(), "x"), Resume: true}).Validate(); err != nil {
		t.Errorf("legal config rejected: %v", err)
	}
}

// TestCampaignValidateRejectsUnwritableCheckpointDir: a checkpoint
// path whose directory cannot be written is refused at setup, not at
// the first periodic write minutes into the run. The unwritable
// "directory" is a regular file, which fails for any uid (a chmod 000
// directory would still be writable when the tests run as root).
func TestCampaignValidateRejectsUnwritableCheckpointDir(t *testing.T) {
	plain := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(plain, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{CheckpointPath: filepath.Join(plain, "run.ckpt")}
	if err := cfg.Validate(); err == nil {
		t.Error("checkpoint path under a regular file accepted")
	}
	if _, err := Run(context.Background(), synthC(t, 5, 3), nil, cfg); err == nil {
		t.Error("Run accepted an unwritable checkpoint location")
	}
	// A missing-but-creatable directory is fine: Validate creates it,
	// exactly as the first checkpoint write would have.
	deep := filepath.Join(t.TempDir(), "a", "b", "run.ckpt")
	if err := (Config{CheckpointPath: deep}).Validate(); err != nil {
		t.Errorf("creatable checkpoint directory rejected: %v", err)
	}
}
