package service

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"seqatpg/internal/atpg"
	"seqatpg/internal/campaign"
	"seqatpg/internal/sim"
)

// TestPersistedFormatsGolden pins the bytes of a terminal JobStatus as
// writeJSON persists it (and GET /jobs/{id} serves it): a Summary with
// all five verdict counts, all eight effort counters and a state set
// non-zero, recorded before the effort counters moved into
// atpg.Counters. The recorded bytes must also decode back to the same
// Summary.
func TestPersistedFormatsGolden(t *testing.T) {
	res := &campaign.Result{
		Outcomes: []atpg.Outcome{atpg.Detected, atpg.Redundant, atpg.Aborted, atpg.Crashed, atpg.Detected},
		Tests:    [][][]sim.Val{{{sim.V0, sim.V1}}, {{sim.V1, sim.VX}}},
		Crashes:  []*atpg.FaultCrash{{Index: 3, Panic: "boom"}},
		Stats: atpg.Stats{
			Total: 5, Detected: 2, Redundant: 1, Aborted: 1, Crashed: 1,
			StatesTraversed: map[uint64]bool{1: true, 42: true, 7: true},
		},
		Passes:             2,
		Resumed:            true,
		Degraded:           true,
		CheckpointFailures: 1,
	}
	s := &res.Stats
	s.Unconfirmed = 101
	s.Effort = 102
	s.Backtracks = 103
	s.LearnHits = 104
	s.LearnPrunes = 105
	s.LearnedCubes = 106
	s.Backjumps = 107
	s.Restarts = 108
	sum := NewSummary(res)
	epoch := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	js := JobStatus{
		ID: "j000042", Name: "golden", State: Done,
		Created: epoch, Started: epoch.Add(time.Second), Finished: epoch.Add(time.Minute),
		TotalFaults: 5, Attempts: 9, Pass: 2, CheckpointWrites: 4,
		Digest: "d1", Result: &sum,
	}
	got, err := json.MarshalIndent(js, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/persisted_jobstatus.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("JobStatus JSON drifted from its recorded bytes:\n got %s\nwant %s", got, want)
	}
	var back JobStatus
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	if back.Result == nil || !reflect.DeepEqual(*back.Result, sum) {
		t.Errorf("recorded Summary decodes to %+v, want %+v", back.Result, sum)
	}
}
