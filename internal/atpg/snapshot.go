package atpg

import (
	"fmt"

	"seqatpg/internal/sim"
)

// Snapshot is the complete state of a fault-list run at a fault
// boundary: per-fault status, accepted tests, aggregate stats, the
// remaining whole-run budget, the SEST learning caches, and any
// recovered crashes. It captures everything ResumeFaults mutates
// between faults, so a fresh engine (same circuit, same Config)
// restored from a Snapshot finishes with Stats identical to a run that
// was never stopped. The campaign package serializes it to disk.
type Snapshot struct {
	Next        int    // index of the next unattempted fault
	RandomDone  bool   // the random preprocessing phase completed
	Status      []byte // one Verdict per fault
	Tests       [][][]sim.Val
	Stats       Stats
	TotalLeft   int64
	OutOfBudget bool
	// FailedCubes and Achieved are the SEST learning caches in
	// insertion order (empty unless Config.Learning). LearnedCubes is
	// the shared lemma store fed by conflict analysis (empty unless
	// Config.SharedLearning and Config.ConflictLearning).
	FailedCubes  []string
	Achieved     []AchievedState
	LearnedCubes []LearnedCube
	Crashes      []*FaultCrash
}

// AchievedState is one learned justification: the input vectors that
// drive the machine (under the named fault context) from reset into
// the concrete state Bits.
type AchievedState struct {
	Fault string
	Bits  uint64
	Seq   [][]sim.Val
}

func copyStateSet(m map[uint64]bool) map[uint64]bool {
	out := make(map[uint64]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// copySeq copies the sequence structure; the innermost vectors are
// shared because the engine treats them as immutable once built.
func copySeq(s [][]sim.Val) [][]sim.Val {
	return append([][]sim.Val(nil), s...)
}

func copyTests(t [][][]sim.Val) [][][]sim.Val {
	out := make([][][]sim.Val, len(t))
	for i, s := range t {
		out[i] = copySeq(s)
	}
	return out
}

// buildSnapshot deep-copies the run state at the current boundary.
func (e *Engine) buildSnapshot(rs *runLoopState) *Snapshot {
	st := e.Stats
	st.StatesTraversed = copyStateSet(e.Stats.StatesTraversed)
	snap := &Snapshot{
		Next:         rs.next,
		RandomDone:   rs.randomDone,
		Status:       make([]byte, len(rs.status)),
		Tests:        copyTests(rs.tests),
		Stats:        st,
		TotalLeft:    e.totalLeft,
		OutOfBudget:  e.outOfBudget,
		FailedCubes:  e.failedCubes.keys(),
		LearnedCubes: e.lemmas.keys(),
		Crashes:      append([]*FaultCrash(nil), rs.crashes...),
	}
	for i, v := range rs.status {
		snap.Status[i] = byte(v)
	}
	for _, k := range e.achieved.order {
		snap.Achieved = append(snap.Achieved, AchievedState{Fault: k.fault, Bits: k.bits, Seq: copySeq(e.achieved.m[k])})
	}
	return snap
}

// restoreSnapshot loads a Snapshot into the engine and run state. The
// snapshot must come from a run over a fault list of the same length
// (the campaign layer additionally fingerprints circuit, config and
// fault identities before trusting a checkpoint).
func (e *Engine) restoreSnapshot(snap *Snapshot, rs *runLoopState, n int) error {
	if len(snap.Status) != n {
		return fmt.Errorf("atpg: snapshot covers %d faults, run has %d", len(snap.Status), n)
	}
	if snap.Next < 0 || snap.Next > n {
		return fmt.Errorf("atpg: snapshot next index %d out of range [0,%d]", snap.Next, n)
	}
	rs.status = make([]Verdict, n)
	for i, st := range snap.Status {
		if rs.status[i] = Verdict(st); !rs.status[i].Valid() {
			return fmt.Errorf("atpg: snapshot status[%d] = %d is not a valid code", i, st)
		}
	}
	rs.tests = copyTests(snap.Tests)
	rs.crashes = append([]*FaultCrash(nil), snap.Crashes...)
	rs.randomDone = snap.RandomDone
	rs.next = snap.Next

	st := snap.Stats
	st.Total = n
	st.StatesTraversed = copyStateSet(snap.Stats.StatesTraversed)
	e.Stats = st
	e.totalLeft = snap.TotalLeft
	e.outOfBudget = snap.OutOfBudget

	e.failedCubes = setOf(snap.FailedCubes)
	e.lemmas = journal[LearnedCube, []cubeLit]{}
	for _, lc := range snap.LearnedCubes {
		e.addLemma(lc)
	}
	e.achieved = journal[achievedKey, [][]sim.Val]{}
	for _, a := range snap.Achieved {
		e.achieved.add(achievedKey{fault: a.Fault, bits: a.Bits}, copySeq(a.Seq))
	}
	return nil
}
