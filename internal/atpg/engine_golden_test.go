package atpg

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// goldenRun pins one engine run of the search benchmark: per-fault
// outcomes (one letter each: a aborted, d detected, r redundant, c
// crashed), the charged effort, the backtrack count, and a SHA-256 of
// the generated test vectors.
type goldenRun struct {
	Circuit    string `json:"circuit"`
	Mode       string `json:"mode"`
	Outcomes   string `json:"outcomes"`
	Effort     int64  `json:"effort"`
	Backtracks int64  `json:"backtracks"`
	Vectors    string `json:"vectors_sha256"`
}

// vectorsDigest hashes a test set as "01X" text, one line per vector
// and a blank line after each test.
func vectorsDigest(tests [][][]sim.Val) string {
	h := sha256.New()
	for _, seq := range tests {
		for _, vec := range seq {
			b := make([]byte, len(vec)+1)
			for i, v := range vec {
				b[i] = "01X"[v]
			}
			b[len(vec)] = '\n'
			h.Write(b)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEngineGolden pins the engine's observable behaviour on the search
// benchmark's original/retimed pair (24 collapsed faults each) under
// the incremental, shared-cache and cdcl configurations against
// testdata/engine_golden.json. A change to the window simulator, the
// effort charge or any search tie-break shows up here as a verdict,
// effort, backtrack or vector drift.
func TestEngineGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/engine_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := engineGoldenRuns(t)
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden table has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("run %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func engineGoldenRuns(t *testing.T) []goldenRun {
	t.Helper()
	orig, re, reFlush := benchPair(t)
	var runs []goldenRun
	for _, cc := range []struct {
		name  string
		c     *netlist.Circuit
		flush int
	}{{"orig", orig, 1}, {"retimed", re, reFlush}} {
		faults := searchFaults(cc.c)
		for _, m := range searchModes {
			if m.name == "oblivious" {
				continue // identical to incremental by construction
			}
			res, err := m.newEngine(t, cc.c, cc.flush).RunFaults(faults)
			if err != nil {
				t.Fatal(err)
			}
			outcomes := make([]byte, len(res.Outcomes))
			for i, o := range res.Outcomes {
				outcomes[i] = o.String()[0]
			}
			runs = append(runs, goldenRun{cc.name, m.name, string(outcomes),
				res.Stats.Effort, res.Stats.Backtracks, vectorsDigest(res.Tests)})
		}
	}
	return runs
}
