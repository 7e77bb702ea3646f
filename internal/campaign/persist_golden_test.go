package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"seqatpg/internal/atpg"
	"seqatpg/internal/fault"
	"seqatpg/internal/ioguard"
	"seqatpg/internal/sim"
)

// setEffortCounters gives every monotone counter of s a distinct
// non-zero value derived from base, so a counter that is dropped,
// swapped or renamed in a persisted format changes the bytes.
func setEffortCounters(s *atpg.Stats, base int64) {
	s.Unconfirmed = int(base + 1)
	s.Effort = base + 2
	s.Backtracks = base + 3
	s.LearnHits = base + 4
	s.LearnPrunes = base + 5
	s.LearnedCubes = base + 6
	s.Backjumps = base + 7
	s.Restarts = base + 8
}

// goldenCheckpointState is a mid-pass campaign state in which every
// persisted field is populated: all eight across-pass counters, every
// verdict, a state set, tests, crashes, and a snapshot whose Stats
// carry all five verdict counts and all eight counters.
func goldenCheckpointState() *state {
	st := freshState(6)
	st.pass = 1
	st.passFaults = []int{2, 5, 1}
	st.outcomes = []atpg.Outcome{atpg.Detected, atpg.Redundant, atpg.Aborted, atpg.Crashed, atpg.Detected, atpg.Aborted}
	st.done = []bool{true, true, true, true, true, false}
	st.agg.Unconfirmed = 11
	st.agg.Effort = 12
	st.agg.Backtracks = 13
	st.agg.LearnHits = 14
	st.agg.LearnPrunes = 15
	st.agg.LearnedCubes = 16
	st.agg.Backjumps = 17
	st.agg.Restarts = 18
	st.states = map[uint64]bool{3: true, 9: true, 1 << 40: true}
	st.tests = [][][]sim.Val{{{sim.V0, sim.V1, sim.VX}, {sim.V1, sim.V1, sim.V0}}}
	st.crashes = []*atpg.FaultCrash{{
		Index: 3,
		Fault: fault.Fault{Gate: 7, Pin: -1, SA: sim.V1},
		Panic: "boom", Stack: "stack",
	}}
	snap := &atpg.Snapshot{
		Next:       2,
		RandomDone: true,
		Status:     []byte{4, 2, 0},
		Tests:      [][][]sim.Val{{{sim.V1, sim.V0, sim.V0}}},
		Stats: atpg.Stats{
			Total: 3, Detected: 1, Redundant: 1, Aborted: 1, Crashed: 1,
			StatesTraversed: map[uint64]bool{5: true, 12: true},
		},
		TotalLeft:   42,
		OutOfBudget: true,
		FailedCubes: []string{"0|01X"},
		Achieved: []atpg.AchievedState{{
			Fault: "g7/sa1|", Bits: 5, Seq: [][]sim.Val{{sim.V1, sim.V0, sim.VX}},
		}},
		LearnedCubes: []atpg.LearnedCube{{Cube: "01X", Bit: 2, Val: sim.V1}},
		Crashes: []*atpg.FaultCrash{{
			Index: 0,
			Fault: fault.Fault{Gate: 2, Pin: 1, SA: sim.V0},
			Panic: "mid-pass", Stack: "frames",
		}},
	}
	setEffortCounters(&snap.Stats, 20)
	st.snap = snap
	return st
}

// goldenResult is a completed campaign Result with all five verdict
// counts, all eight counters and a state set non-zero.
func goldenResult() *Result {
	res := &Result{
		Outcomes: []atpg.Outcome{atpg.Detected, atpg.Redundant, atpg.Aborted, atpg.Crashed, atpg.Detected},
		Tests: [][][]sim.Val{
			{{sim.V0, sim.V1, sim.VX}, {sim.V1, sim.V1, sim.V0}},
			{{sim.VX, sim.VX, sim.VX}},
		},
		Crashes: []*atpg.FaultCrash{{
			Index: 3,
			Fault: fault.Fault{Gate: 4, Pin: -1, SA: sim.V0},
			Panic: "boom", Stack: "stack",
		}},
		Stats: atpg.Stats{
			Total: 5, Detected: 2, Redundant: 1, Aborted: 1, Crashed: 1,
			StatesTraversed: map[uint64]bool{1: true, 42: true},
		},
		Passes:             2,
		Resumed:            true,
		Degraded:           true,
		CheckpointFailures: 1,
	}
	setEffortCounters(&res.Stats, 100)
	return res
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its recorded bytes:\n got %s\nwant %s", name, got, want)
	}
}

// TestPersistedFormatsGolden pins the bytes of the two persisted
// campaign formats, recorded before the effort counters moved into
// atpg.Counters: the checkpoint file saveState writes (a mid-pass
// snapshot included, crc32 and all) and the shard-result wire
// payload. Both must also survive a decode/re-encode cycle unchanged.
// A change here strands every checkpoint on disk and every cached
// shard result; it needs a format version bump, not a re-recording.
func TestPersistedFormatsGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.ckpt")
	if err := saveState(ioguard.OS, path, "golden-fingerprint", goldenCheckpointState()); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "persisted_checkpoint.json", ckpt)
	st, _, err := loadState(ioguard.OS, path, "golden-fingerprint", 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := saveState(ioguard.OS, path, "golden-fingerprint", st); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, ckpt) {
		t.Errorf("checkpoint changed across load and re-save:\n got %s\nwant %s", again, ckpt)
	}

	wire, err := EncodeResult(goldenResult())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "persisted_wire.json", wire)
	dec, err := DecodeResult(wire)
	if err != nil {
		t.Fatal(err)
	}
	rewire, err := EncodeResult(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewire, wire) {
		t.Errorf("wire result changed across decode and re-encode:\n got %s\nwant %s", rewire, wire)
	}
}
