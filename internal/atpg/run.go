package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"

	"seqatpg/internal/fault"
	"seqatpg/internal/sim"
)

// Result is the outcome of a run: the generated tests, the per-fault
// outcomes (parallel to the fault list given to RunFaults), and the
// aggregate counters.
type Result struct {
	Tests    [][][]sim.Val // one sequence per accepted test (flush prefix included)
	Outcomes []Outcome     // parallel to the fault list
	Stats    Stats
	// Crashes records every fault search whose panic was recovered;
	// the matching Outcomes entries are Crashed.
	Crashes []*FaultCrash
	// Interrupted reports that the run's context was cancelled before
	// the fault list was finished. Outcomes and Stats then reflect the
	// last completed fault boundary; unattempted faults read as Aborted
	// but carry no Stats.Aborted count — resume from the Snapshot to
	// finish them.
	Interrupted bool
}

// FaultCrash describes one fault search that panicked. The panic is
// recovered, the engine state is rolled back to the preceding fault
// boundary, and the campaign continues; the crash itself travels as a
// structured error so callers can log or persist the diagnostics.
type FaultCrash struct {
	Index int // position in the fault list handed to the run
	Fault fault.Fault
	Panic string // rendered panic value
	Stack string // goroutine stack captured at the recover site
}

// Error renders the crash without the (multi-line) stack.
func (c *FaultCrash) Error() string {
	return fmt.Sprintf("atpg: fault %d (%v) search panicked: %s", c.Index, c.Fault, c.Panic)
}

// BoundaryFunc observes a run at fault boundaries: done list positions
// are finished out of total. snapshot builds a consistent Snapshot of
// the run at this boundary; it deep-copies the run state, so call it
// only when a checkpoint is actually wanted.
type BoundaryFunc func(done, total int, snapshot func() *Snapshot)

// runLoopState is the per-run mutable state that lives outside the
// Engine: the per-fault verdicts, the accepted tests, recovered
// crashes, and the loop cursor.
type runLoopState struct {
	status     []Verdict
	tests      [][][]sim.Val
	crashes    []*FaultCrash
	randomDone bool
	next       int // index of the next unattempted fault
}

// boundaryMark captures everything a single fault attempt may mutate,
// so a cancelled or crashed attempt can be rolled back and the engine
// state made bit-equal to the preceding fault boundary. That equality
// is what makes checkpoint/resume exact: resuming replays the attempt
// from scratch and takes the same deterministic path.
type boundaryMark struct {
	counters                      Counters
	totalLeft                     int64
	outOfBudget                   bool
	achieved, failedCubes, lemmas int // journal lengths
}

func (e *Engine) mark() boundaryMark {
	return boundaryMark{
		counters:    e.Stats.Counters,
		totalLeft:   e.totalLeft,
		outOfBudget: e.outOfBudget,
		achieved:    len(e.achieved.order),
		failedCubes: len(e.failedCubes.order),
		lemmas:      len(e.lemmas.order),
	}
}

func (e *Engine) rollback(m boundaryMark) {
	e.Stats.Counters = m.counters
	e.totalLeft = m.totalLeft
	e.outOfBudget = m.outOfBudget
	e.achieved.truncate(m.achieved)
	e.failedCubes.truncate(m.failedCubes)
	e.lemmas.truncate(m.lemmas)
}

// generateSafe runs one fault search with panic isolation.
func (e *Engine) generateSafe(i int, f *fault.Fault) (out Outcome, seq [][]sim.Val, crash *FaultCrash) {
	defer func() {
		if r := recover(); r != nil {
			crash = &FaultCrash{Index: i, Fault: *f, Panic: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	if e.TestHook != nil {
		e.TestHook(i, *f)
	}
	out, seq = e.generate(f)
	return out, seq, nil
}

// fsimPasses is the fault-simulation effort unit: the number of kernel
// passes a drop over n live faults costs, ceil(n/fault.FaultsPerPass).
func fsimPasses(n int) int64 {
	return int64((n + fault.FaultsPerPass - 1) / fault.FaultsPerPass)
}

// Run generates tests for the whole collapsed fault universe.
func (e *Engine) Run() (*Result, error) {
	return e.RunFaults(fault.CollapsedUniverse(e.c))
}

// RunFaults generates tests for the given fault list.
func (e *Engine) RunFaults(faults []fault.Fault) (*Result, error) {
	return e.RunFaultsCtx(context.Background(), faults)
}

// RunFaultsCtx is RunFaults under a context: when ctx is cancelled
// (deadline or signal), the run stops at the next effort charge and
// returns a partial Result with Interrupted set instead of nothing.
func (e *Engine) RunFaultsCtx(ctx context.Context, faults []fault.Fault) (*Result, error) {
	res, _, err := e.ResumeFaults(ctx, faults, nil, nil)
	return res, err
}

// ResumeFaults is the full-control run entry point: it starts (from ==
// nil) or resumes (from != nil) a fault-list run, reports progress at
// fault boundaries via onBoundary, and — when interrupted — returns
// the Snapshot of the last completed boundary alongside the partial
// Result. A run restored from that Snapshot on a fresh engine with the
// same Config finishes with Stats identical to a never-interrupted run.
func (e *Engine) ResumeFaults(ctx context.Context, faults []fault.Fault, from *Snapshot, onBoundary BoundaryFunc) (*Result, *Snapshot, error) {
	rs := &runLoopState{status: make([]Verdict, len(faults))}
	e.Stats.Total = len(faults)
	e.totalLeft = e.cfg.TotalBudget
	if from != nil {
		if err := e.restoreSnapshot(from, rs, len(faults)); err != nil {
			return nil, nil, err
		}
	}
	e.cancelDone = ctx.Done()
	e.cancelled = false
	defer func() { e.cancelDone = nil }()

	boundary := func(done int) {
		if onBoundary != nil {
			onBoundary(done, len(faults), func() *Snapshot { return e.buildSnapshot(rs) })
		}
	}

	dropDetected := func(seq [][]sim.Val) error {
		if e.cfg.NoFaultDrop {
			return nil
		}
		var live []fault.Fault
		var liveIdx []int
		for i, f := range faults {
			if rs.status[i] == verdictLive {
				live = append(live, f)
				liveIdx = append(liveIdx, i)
			}
		}
		if len(live) == 0 {
			return nil
		}
		// The drop pass runs under context.Background() and is booked
		// without a cancellation poll, so it is always completed and paid
		// for: a cancel that lands here is observed at the next boundary.
		det, err := e.fsim.DetectsParallel(context.Background(), seq, live, e.fsimWorkers)
		if err != nil {
			return err
		}
		// Effort is denominated in gate evaluations; a simulator pass
		// over one vector touches every gate once.
		e.spend(fsimPasses(len(live)) * int64(len(seq)) * int64(e.soa.NumGates()))
		for k, d := range det {
			if d {
				rs.status[liveIdx[k]] = verdictDetected
				e.Stats.Detected++
			}
		}
		return nil
	}

	recordStates := func(seq [][]sim.Val) {
		// A circuit too wide to pack its states (fault.ErrStateTooWide)
		// records none.
		_ = fault.TraceStates(e.gsim, seq, e.Stats.StatesTraversed)
	}

	// Random preprocessing phase (Attest-style). The phase is atomic
	// with respect to checkpointing: a cancellation mid-phase rolls the
	// whole phase back, and a resumed run replays it from the start.
	if e.cfg.RandomSequences > 0 && !rs.randomDone {
		m := e.mark()
		savedStatus := append([]Verdict(nil), rs.status...)
		savedTests := len(rs.tests)
		savedDetected := e.Stats.Detected
		savedStates := copyStateSet(e.Stats.StatesTraversed)

		rng := rand.New(rand.NewSource(e.cfg.Seed + 17))
		resetIdx := e.c.ResetIndex()
		for s := 0; s < e.cfg.RandomSequences && !e.checkCancel(); s++ {
			seq := append([][]sim.Val{}, e.flushPrefix...)
			for v := 0; v < e.cfg.RandomLength; v++ {
				vec := make([]sim.Val, len(e.c.PIs))
				for i := range vec {
					vec[i] = sim.Val(rng.Intn(2))
				}
				vec[resetIdx] = sim.V0
				if rng.Intn(16) == 0 {
					vec[resetIdx] = sim.V1
				}
				seq = append(seq, vec)
			}
			before := e.Stats.Detected
			if err := dropDetected(seq); err != nil {
				return nil, nil, err
			}
			if e.Stats.Detected > before {
				rs.tests = append(rs.tests, seq)
				recordStates(seq)
			}
			if e.outOfBudget {
				break
			}
		}
		if e.checkCancel() {
			e.rollback(m)
			rs.status = savedStatus
			rs.tests = rs.tests[:savedTests]
			e.Stats.Detected = savedDetected
			e.Stats.StatesTraversed = savedStates
			res := e.assembleResult(rs, true)
			return res, e.buildSnapshot(rs), nil
		}
		rs.randomDone = true
		boundary(rs.next)
	}

	// Deterministic phase.
	i := rs.next
	for ; i < len(faults); i++ {
		if rs.status[i] != verdictLive {
			rs.next = i + 1
			continue
		}
		if e.checkCancel() {
			break // fault i stays unattempted; rs.next points at it
		}
		if e.outOfBudget {
			rs.status[i] = verdictAborted
			e.Stats.Aborted++
			rs.next = i + 1
			boundary(i + 1)
			continue
		}
		m := e.mark()
		e.remaining = e.cfg.FaultBudget
		outcome, seq, crash := e.generateSafe(i, &faults[i])
		if e.cancelled {
			// The attempt was cut short by cancellation; its control
			// flow diverged from an uninterrupted run's, so discard
			// every side effect (including a panic that may only have
			// fired because of the early aborts) and let the resumed
			// run replay the fault in full.
			e.rollback(m)
			break
		}
		if crash != nil {
			e.rollback(m)
			rs.status[i] = verdictCrashed
			e.Stats.Crashed++
			rs.crashes = append(rs.crashes, crash)
			rs.next = i + 1
			e.capLearning()
			boundary(i + 1)
			continue
		}
		e.Stats.Tally(outcome)
		rs.status[i] = outcomeVerdict[outcome]
		if outcome == Detected {
			rs.tests = append(rs.tests, seq)
			recordStates(seq)
			// Drop everything else this sequence catches (this fault is
			// already marked, so it is not double counted).
			if err := dropDetected(seq); err != nil {
				return nil, nil, err
			}
		}
		rs.next = i + 1
		// Size-bound the learning stores here, at the fault boundary:
		// mid-fault eviction would invalidate the journal lengths
		// captured by mark().
		e.capLearning()
		boundary(i + 1)
	}

	interrupted := i < len(faults)
	res := e.assembleResult(rs, interrupted)
	if !interrupted {
		return res, nil, nil
	}
	return res, e.buildSnapshot(rs), nil
}

// assembleResult maps verdicts to outcomes and copies the stats.
func (e *Engine) assembleResult(rs *runLoopState, interrupted bool) *Result {
	res := &Result{
		Tests:       rs.tests,
		Outcomes:    make([]Outcome, len(rs.status)),
		Crashes:     rs.crashes,
		Interrupted: interrupted,
	}
	for i, v := range rs.status {
		res.Outcomes[i] = v.Outcome()
	}
	res.Stats = e.Stats
	return res
}
