// Package campaign wraps atpg.Engine runs in a resilient run
// controller for long ATPG campaigns: cooperative cancellation under a
// context deadline, periodic checkpoint/resume with a fingerprinted
// on-disk format, per-fault crash isolation, and retry escalation that
// re-attacks aborted faults with an exponentially growing budget ladder
// (the paper's observation is that aborts concentrate in a small hard
// core, so a 2x/4x second look is cheap relative to the first pass).
package campaign

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"seqatpg/internal/atpg"
	"seqatpg/internal/fault"
	"seqatpg/internal/ioguard"
	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// Config controls one campaign.
type Config struct {
	// Engine is the base engine configuration; pass p of the retry
	// ladder runs with FaultBudget << p and no random preprocessing.
	Engine atpg.Config
	// Retries is how many escalation passes follow the first pass.
	// Each pass re-attacks only the faults the previous pass aborted.
	Retries int
	// FsimWorkers is the worker count for the campaign's fault-
	// simulation passes (the engines' fault dropping, and the sharded
	// campaign's global upgrade pass); zero selects GOMAXPROCS,
	// negative is rejected. Fault-simulation results are worker-count-
	// invariant, so the knob cannot change outcomes — which is why it
	// is not part of the checkpoint fingerprint (that covers only the
	// Engine config) and a resumed campaign may use a different value.
	FsimWorkers int
	// CheckpointPath enables checkpointing when non-empty: the file is
	// rewritten at most every CheckpointEvery during the run, always
	// when the run is interrupted, and removed on success.
	CheckpointPath string
	// CheckpointEvery is the minimum wall-clock gap between periodic
	// checkpoint writes; zero selects 30 seconds.
	CheckpointEvery time.Duration
	// Resume loads CheckpointPath (if it exists) and continues the
	// campaign from it. A checkpoint whose fingerprint does not match
	// the circuit, config and fault list is rejected with an error
	// wrapping ErrCheckpointMismatch.
	Resume bool
	// Hook is forwarded to every engine pass as its TestHook, with the
	// index remapped to the original fault list. Test instrumentation
	// only; it is not fingerprinted. Under Execute it is invoked
	// concurrently from all partition workers.
	Hook func(index int, f fault.Fault)
	// Log, when set, receives progress lines (pass starts, checkpoint
	// writes, crash notices). Execute serializes concurrent partition
	// logging before it reaches this callback.
	Log func(format string, args ...any)
	// OnCheckpoint, when set, is called after every successful
	// checkpoint write (periodic, pass-boundary or interruption).
	// Observability instrumentation only; it is not fingerprinted.
	// Under Execute it is invoked concurrently from all partition
	// workers.
	OnCheckpoint func()
	// OnCheckpointFailure, when set, is called after every failed
	// checkpoint write with the error. Failed writes do not abort the
	// campaign — the run is marked degraded and the write is retried
	// at the next checkpoint interval. Observability only; not
	// fingerprinted. Under Execute it is invoked concurrently from
	// all partition workers.
	OnCheckpointFailure func(error)
	// FS is the filesystem seam all checkpoint I/O (and the Validate
	// probe) goes through; nil selects the real filesystem
	// (ioguard.OS). Fault-injection tests substitute an
	// ioguard.FaultFS. Not fingerprinted: the seam decides whether
	// persistence succeeds, never what the campaign computes.
	FS ioguard.FS
}

// fs resolves Config.FS: nil means the real filesystem.
func (c Config) fs() ioguard.FS {
	if c.FS == nil {
		return ioguard.OS
	}
	return c.FS
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

func (c Config) checkpointed() {
	if c.OnCheckpoint != nil {
		c.OnCheckpoint()
	}
}

// fsimWorkers resolves Config.FsimWorkers: zero means GOMAXPROCS.
func (c Config) fsimWorkers() int {
	if c.FsimWorkers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.FsimWorkers
}

// Validate rejects nonsensical campaign knobs (the engine config is
// validated by atpg.New). A non-empty CheckpointPath is probed up
// front: the checkpoint directory is created if missing — exactly what
// the first periodic write would do — and a throwaway file is written
// to it, so an unwritable location fails the run at setup instead of
// at the first checkpoint minutes or hours in.
func (c Config) Validate() error {
	if c.Retries < 0 {
		return fmt.Errorf("campaign: negative Retries %d", c.Retries)
	}
	if c.FsimWorkers < 0 {
		return fmt.Errorf("campaign: negative FsimWorkers %d", c.FsimWorkers)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("campaign: negative CheckpointEvery %v", c.CheckpointEvery)
	}
	if c.Resume && c.CheckpointPath == "" {
		return errors.New("campaign: Resume requires CheckpointPath")
	}
	if c.CheckpointPath != "" {
		fsys := c.fs()
		dir := filepath.Dir(c.CheckpointPath)
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("campaign: checkpoint directory %s: %w", dir, err)
		}
		probe := filepath.Join(dir, ".ckpt-probe.tmp")
		if err := fsys.WriteFile(probe, []byte("probe\n"), 0o644); err != nil {
			return fmt.Errorf("campaign: checkpoint directory %s is not writable: %w", dir, err)
		}
		fsys.Remove(probe)
	}
	return nil
}

// Result is the campaign outcome.
type Result struct {
	// Outcomes is the final per-fault verdict, parallel to the fault
	// list. In an interrupted campaign, faults no pass has resolved yet
	// read as Aborted.
	Outcomes []atpg.Outcome
	Tests    [][][]sim.Val
	// Stats aggregates every pass: outcome counters recomputed from
	// the final verdicts, effort/backtrack counters summed, traversed
	// states unioned. An interrupted-then-resumed campaign finishes
	// with Stats identical to one that was never stopped.
	Stats atpg.Stats
	// Crashes holds the recovered panics of all passes, with Index
	// remapped to the original fault list.
	Crashes []*atpg.FaultCrash
	// Interrupted reports the campaign stopped on context cancellation;
	// a checkpoint (if configured) has been written.
	Interrupted bool
	// Resumed reports the campaign started from a checkpoint.
	Resumed bool
	// Passes is the number of engine passes that ran to completion.
	Passes int
	// CheckpointFailures counts checkpoint writes that failed during
	// this process's run (failure counts are per run, not persisted in
	// the checkpoint itself). Each failure was logged and retried at
	// the next checkpoint interval; the search results are unaffected.
	CheckpointFailures int
	// Degraded reports CheckpointFailures > 0: the campaign finished
	// (or parked) with full results, but one or more of its durability
	// writes failed, so the newest on-disk generation may be stale.
	Degraded bool
}

// state is the cross-pass campaign state; it is what the checkpoint
// format serializes.
type state struct {
	pass       int   // current pass (0 = initial)
	passFaults []int // original-list indices the current pass attacks
	outcomes   []atpg.Outcome
	done       []bool // outcomes[i] was fixed by a completed pass
	agg        passAgg
	states     map[uint64]bool
	tests      [][][]sim.Val
	crashes    []*atpg.FaultCrash
	snap       *atpg.Snapshot // mid-pass boundary snapshot, nil at a pass start
	resumed    bool
	// ckptFailures counts failed checkpoint writes this run. It is
	// process-local observability, deliberately not serialized: a
	// resumed campaign's Stats must stay byte-identical to an
	// uninterrupted run, and durability trouble in a previous process
	// is that process's report.
	ckptFailures int
}

// passAgg sums the monotone effort counters over completed passes.
type passAgg struct {
	Effort       int64
	Backtracks   int64
	LearnHits    int64
	LearnPrunes  int64
	LearnedCubes int64
	Backjumps    int64
	Restarts     int64
	Unconfirmed  int
}

// writeCheckpoint attempts one checkpoint write. Failure degrades the
// run instead of aborting it: the failure counter advances, the
// OnCheckpointFailure callback fires, and the log line is emitted with
// power-of-two backoff (failures 1, 2, 4, 8, …) so an ENOSPC storm
// cannot flood the log. The write is retried at the next checkpoint
// opportunity.
func (c Config) writeCheckpoint(fp string, st *state) bool {
	if err := saveState(c.fs(), c.CheckpointPath, fp, st); err != nil {
		st.ckptFailures++
		if c.OnCheckpointFailure != nil {
			c.OnCheckpointFailure(err)
		}
		if n := st.ckptFailures; n&(n-1) == 0 {
			c.logf("campaign: checkpoint write failed (%d failure(s) so far, run degraded, will retry): %v", n, err)
		}
		return false
	}
	c.checkpointed()
	return true
}

func freshState(n int) *state {
	st := &state{
		outcomes:   make([]atpg.Outcome, n),
		done:       make([]bool, n),
		states:     map[uint64]bool{},
		passFaults: make([]int, n),
	}
	for i := range st.passFaults {
		st.passFaults[i] = i
	}
	return st
}

// passConfig derives the engine config for pass p: the budget ladder
// doubles per pass and the random preprocessing phase runs only once.
func (c Config) passConfig(p int) atpg.Config {
	cfg := c.Engine
	if p > 0 {
		cfg.RandomSequences = 0
		cfg.RandomLength = 0
		if cfg.FaultBudget > 0 {
			shift := uint(p)
			if cfg.FaultBudget > math.MaxInt64>>shift {
				cfg.FaultBudget = math.MaxInt64
			} else {
				cfg.FaultBudget <<= shift
			}
		}
	}
	return cfg
}

// Run executes a campaign over the fault list. It returns a non-nil
// Result unless setup fails (bad config, unreadable checkpoint,
// un-buildable engine); interruption is reported in the Result, not as
// an error.
func Run(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The fingerprint only guards checkpoints: without a path nothing
	// reads it.
	fp := ""
	if cfg.CheckpointPath != "" {
		fp = Fingerprint(c, cfg, faults)
	}

	var st *state
	if cfg.Resume {
		loaded, fellBack, err := loadState(cfg.fs(), cfg.CheckpointPath, fp, len(faults))
		if err != nil {
			return nil, err
		}
		if loaded != nil {
			st = loaded
			st.resumed = true
			if fellBack {
				cfg.logf("campaign: current checkpoint generation at %s is unusable; recovered from %s%s", cfg.CheckpointPath, cfg.CheckpointPath, prevSuffix)
			}
			cfg.logf("campaign: resumed from %s (pass %d, %d faults pending)", cfg.CheckpointPath, st.pass, len(st.passFaults))
		} else {
			cfg.logf("campaign: no checkpoint at %s, starting fresh", cfg.CheckpointPath)
		}
	}
	if st == nil {
		st = freshState(len(faults))
	}

	every := cfg.CheckpointEvery
	if every <= 0 {
		every = 30 * time.Second
	}
	lastWrite := time.Now()

	for st.pass <= cfg.Retries && len(st.passFaults) > 0 {
		if ctx.Err() != nil {
			return finishInterrupted(ctx, cfg, fp, st)
		}
		ecfg := cfg.passConfig(st.pass)
		e, err := atpg.New(c, ecfg)
		if err != nil {
			return nil, fmt.Errorf("campaign: pass %d: %w", st.pass, err)
		}
		e.SetFaultSimWorkers(cfg.fsimWorkers())
		if cfg.Hook != nil {
			local := st.passFaults
			hook := cfg.Hook
			e.TestHook = func(i int, f fault.Fault) { hook(local[i], f) }
		}
		sub := make([]fault.Fault, len(st.passFaults))
		for k, idx := range st.passFaults {
			sub[k] = faults[idx]
		}
		cfg.logf("campaign: pass %d: %d faults, per-fault budget %d", st.pass, len(sub), ecfg.FaultBudget)

		onBoundary := func(done, total int, snapshot func() *atpg.Snapshot) {
			if cfg.CheckpointPath == "" || time.Since(lastWrite) < every {
				return
			}
			st.snap = snapshot()
			if cfg.writeCheckpoint(fp, st) {
				cfg.logf("campaign: checkpoint at pass %d, %d/%d faults", st.pass, done, total)
			}
			// Advance the clock on failure too: retry at the next
			// interval, not at every fault boundary of a full disk.
			lastWrite = time.Now()
		}

		res, snap, err := e.ResumeFaults(ctx, sub, st.snap, onBoundary)
		if err != nil {
			return nil, fmt.Errorf("campaign: pass %d: %w", st.pass, err)
		}
		if res.Interrupted {
			st.snap = snap
			return finishInterrupted(ctx, cfg, fp, st)
		}

		// Merge the completed pass.
		st.snap = nil
		for k, idx := range st.passFaults {
			st.outcomes[idx] = res.Outcomes[k]
			st.done[idx] = true
		}
		st.agg.Effort += res.Stats.Effort
		st.agg.Backtracks += res.Stats.Backtracks
		st.agg.LearnHits += res.Stats.LearnHits
		st.agg.LearnPrunes += res.Stats.LearnPrunes
		st.agg.LearnedCubes += res.Stats.LearnedCubes
		st.agg.Backjumps += res.Stats.Backjumps
		st.agg.Restarts += res.Stats.Restarts
		st.agg.Unconfirmed += res.Stats.Unconfirmed
		for s := range res.Stats.StatesTraversed {
			st.states[s] = true
		}
		st.tests = append(st.tests, res.Tests...)
		for _, cr := range res.Crashes {
			remapped := *cr
			remapped.Index = st.passFaults[cr.Index]
			st.crashes = append(st.crashes, &remapped)
			cfg.logf("campaign: %v", remapped.Error())
		}

		// The next pass re-attacks only the aborted faults (crashed
		// faults are deterministic bugs; retrying would crash again).
		var aborted []int
		for k, idx := range st.passFaults {
			if res.Outcomes[k] == atpg.Aborted {
				aborted = append(aborted, idx)
			}
		}
		st.passFaults = aborted
		st.pass++
		if st.pass <= cfg.Retries && len(aborted) > 0 && cfg.CheckpointPath != "" {
			cfg.writeCheckpoint(fp, st)
			lastWrite = time.Now()
		}
	}

	res := assemble(st, false)
	if cfg.CheckpointPath != "" {
		if err := removeState(cfg.fs(), cfg.CheckpointPath); err != nil {
			cfg.logf("campaign: could not remove finished checkpoint: %v", err)
		}
	}
	return res, nil
}

// finishInterrupted writes the final checkpoint and assembles the
// partial result. A failed final write degrades the result instead of
// erroring: the last durable generation (current or .prev) is still on
// disk, and resuming from it merely repeats the work since then.
func finishInterrupted(ctx context.Context, cfg Config, fp string, st *state) (*Result, error) {
	if cfg.CheckpointPath != "" {
		if cfg.writeCheckpoint(fp, st) {
			cfg.logf("campaign: interrupted (%v), checkpoint written to %s", context.Cause(ctx), cfg.CheckpointPath)
		} else {
			cfg.logf("campaign: interrupted (%v) and the final checkpoint write failed; a resume will use the last durable generation", context.Cause(ctx))
		}
	}
	return assemble(st, true), nil
}

// assemble computes the campaign-level result. Outcome counters are
// recomputed from the per-fault verdicts; effort counters are the
// across-pass sums (plus, under interruption, the mid-pass snapshot's
// partial progress, so the caller sees how far the campaign got).
func assemble(st *state, interrupted bool) *Result {
	res := &Result{
		Outcomes:           append([]atpg.Outcome(nil), st.outcomes...),
		Tests:              st.tests,
		Crashes:            st.crashes,
		Interrupted:        interrupted,
		Resumed:            st.resumed,
		Passes:             st.pass,
		CheckpointFailures: st.ckptFailures,
		Degraded:           st.ckptFailures > 0,
	}
	stats := atpg.Stats{Total: len(st.outcomes)}
	count := func(o atpg.Outcome, delta int) {
		switch o {
		case atpg.Detected:
			stats.Detected += delta
		case atpg.Redundant:
			stats.Redundant += delta
		case atpg.Crashed:
			stats.Crashed += delta
		default:
			stats.Aborted += delta
		}
	}
	for i, o := range res.Outcomes {
		if !st.done[i] {
			// Never resolved by a completed pass: conservatively
			// aborted (only possible in an interrupted pass 0).
			stats.Aborted++
			continue
		}
		count(o, 1)
	}
	if interrupted && st.snap != nil {
		// Mid-pass verdicts supersede the previous pass's aborts (and,
		// in pass 0, the unresolved default) for the partial report.
		for k, code := range st.snap.Status {
			idx := st.passFaults[k]
			var o atpg.Outcome
			switch code {
			case 1:
				o = atpg.Detected
			case 2:
				o = atpg.Redundant
			case 4:
				o = atpg.Crashed
			default:
				continue
			}
			stats.Aborted--
			count(o, 1)
			res.Outcomes[idx] = o
		}
		sn := st.snap.Stats
		stats.Effort += sn.Effort
		stats.Backtracks += sn.Backtracks
		stats.LearnHits += sn.LearnHits
		stats.LearnPrunes += sn.LearnPrunes
		stats.LearnedCubes += sn.LearnedCubes
		stats.Backjumps += sn.Backjumps
		stats.Restarts += sn.Restarts
		stats.Unconfirmed += sn.Unconfirmed
		for s := range sn.StatesTraversed {
			st.states[s] = true
		}
		res.Tests = append(res.Tests, st.snap.Tests...)
	}
	stats.Effort += st.agg.Effort
	stats.Backtracks += st.agg.Backtracks
	stats.LearnHits += st.agg.LearnHits
	stats.LearnPrunes += st.agg.LearnPrunes
	stats.LearnedCubes += st.agg.LearnedCubes
	stats.Backjumps += st.agg.Backjumps
	stats.Restarts += st.agg.Restarts
	stats.Unconfirmed += st.agg.Unconfirmed
	stats.StatesTraversed = st.states
	res.Stats = stats
	return res
}
