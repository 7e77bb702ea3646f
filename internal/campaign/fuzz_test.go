package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"seqatpg/internal/atpg"
	"seqatpg/internal/ioguard"
	"seqatpg/internal/sim"
)

// seedCheckpoint renders a genuine checkpoint file for the corpus.
func seedCheckpoint(f *testing.F, st *state) {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.json")
	if err := saveState(ioguard.OS, path, "seed-fingerprint", st); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
}

// FuzzCheckpoint throws arbitrary bytes at the campaign checkpoint
// decoder, the mirror of netlist's FuzzRead: checkpoints are the other
// on-disk artifact the system reads back (a service job directory can
// contain anything after a crash). loadState must never panic — it
// returns an error or a state that survives a save/load round trip.
// The fingerprint and fault count are lifted from the input itself so
// structurally valid files reach the deep decoding paths instead of
// dying at the fingerprint gate.
func FuzzCheckpoint(f *testing.F) {
	full := freshState(3)
	full.pass = 1
	full.passFaults = []int{0, 2}
	full.outcomes = []atpg.Outcome{atpg.Detected, atpg.Aborted, atpg.Aborted}
	full.done = []bool{true, false, false}
	full.agg = atpg.Counters{Effort: 100, Backtracks: 7, Unconfirmed: 1}
	full.states = map[uint64]bool{0: true, 9: true}
	full.tests = [][][]sim.Val{{{sim.V0, sim.V1, sim.VX}}}
	full.crashes = []*atpg.FaultCrash{{Index: 1, Panic: "boom", Stack: "stack"}}
	full.snap = &atpg.Snapshot{
		Status: []byte{0, 2},
		Tests:  [][][]sim.Val{{{sim.V1, sim.V1, sim.V0}}},
		Stats:  atpg.Stats{Total: 2, Aborted: 1, StatesTraversed: map[uint64]bool{4: true}},
	}
	seedCheckpoint(f, full)
	seedCheckpoint(f, freshState(1))
	f.Add([]byte(`{"version":1,"fingerprint":"x","outcomes":"07","done":"11"}`))
	f.Add([]byte(`{"version":1,"fingerprint":"x","outcomes":"00","done":"10","pass_faults":[0,0]}`))
	f.Add([]byte(`{"version":1,"fingerprint":"x","outcomes":"0","done":"1","tests":[["01Z"]]}`))
	f.Add([]byte(`{"version":1,"fingerprint":"x","outcomes":"0","done":"0","snap":{"status":"9"}}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`not json`))
	f.Add([]byte("\x00\xff{"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ckpt.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The raw bytes must never panic the loader, whatever they are.
		_, _, _ = loadState(ioguard.OS, path, "", 0)
		fuzzRoundTrip(t, data)
	})
}

// FuzzLearnedCubes targets the learned-cube serialization added with
// the conflict-driven search: checkpoints carrying lemma stores and the
// cdcl effort counters must decode without panicking, reject malformed
// cube strings and out-of-range bits, and — once accepted — survive a
// save/load cycle with the store intact in insertion order.
func FuzzLearnedCubes(f *testing.F) {
	st := freshState(2)
	st.agg = atpg.Counters{Effort: 42, LearnedCubes: 3, Backjumps: 2, Restarts: 1}
	st.snap = &atpg.Snapshot{
		Status: []byte{0, 0},
		Stats: atpg.Stats{
			Total: 2, Counters: atpg.Counters{LearnedCubes: 3, Backjumps: 2, Restarts: 1},
			StatesTraversed: map[uint64]bool{},
		},
		LearnedCubes: []atpg.LearnedCube{
			{Cube: "01X", Bit: 2, Val: sim.V1},
			{Cube: "X1X", Bit: 0, Val: sim.V0},
			{Cube: "10X", Bit: 1, Val: sim.V1},
		},
	}
	seedCheckpoint(f, st)
	f.Add([]byte(`{"version":3,"fingerprint":"x","outcomes":"0","done":"0","snap":{"status":"0","learned_cubes":[{"cube":"01X","bit":1,"val":1}]}}`))
	f.Add([]byte(`{"version":3,"fingerprint":"x","outcomes":"0","done":"0","snap":{"status":"0","learned_cubes":[{"cube":"9","bit":0,"val":1}]}}`))
	f.Add([]byte(`{"version":3,"fingerprint":"x","outcomes":"0","done":"0","snap":{"status":"0","learned_cubes":[{"cube":"01","bit":7,"val":1}]}}`))
	f.Add([]byte(`{"version":3,"fingerprint":"x","outcomes":"0","done":"0","snap":{"status":"0","learned_cubes":[{"cube":"XXX","bit":0,"val":0}]}}`))
	f.Add([]byte(`{"version":3,"fingerprint":"x","outcomes":"0","done":"0","snap":{"status":"0","learned_cubes":[{"cube":"01","bit":0,"val":9}]}}`))
	f.Add([]byte(`{"version":3,"fingerprint":"x","outcomes":"0","done":"0","stats":{"learned_cubes":-1}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cubes.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _ = loadState(ioguard.OS, path, "", 0)
		fuzzRoundTrip(t, data)
	})
}

// fuzzRoundTrip is the shared deep-decode property: heal the CRC so
// structurally valid payloads reach the decoder, then require any
// accepted state to survive a save/load cycle — including the learned
// lemma store, verbatim.
func fuzzRoundTrip(t *testing.T, data []byte) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Self-consistent fingerprint, fault count and CRC, when
	// extractable: healing the checksum lets structurally valid
	// files reach the deep decoding paths instead of dying at the
	// CRC gate the fuzzer can almost never satisfy by chance.
	var file ckptFile
	if json.Unmarshal(data, &file) != nil {
		return
	}
	fp := file.Fingerprint
	n := len(file.Outcomes)
	if crc, err := payloadCRC(file); err == nil {
		file.Crc = crc
		healed, err := json.Marshal(&file)
		if err == nil {
			if err := os.WriteFile(path, healed, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, _, err := loadState(ioguard.OS, path, fp, n)
	if err != nil || st == nil {
		return
	}
	// A state the decoder accepted must survive a round trip.
	again := filepath.Join(t.TempDir(), "again.json")
	if err := saveState(ioguard.OS, again, fp, st); err != nil {
		t.Fatalf("saveState rejected a state loadState produced: %v", err)
	}
	st2, _, err := loadState(ioguard.OS, again, fp, n)
	if err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	if st2 == nil {
		t.Fatal("round trip lost the checkpoint")
	}
	if len(st2.outcomes) != len(st.outcomes) || st2.pass != st.pass ||
		len(st2.passFaults) != len(st.passFaults) || len(st2.tests) != len(st.tests) {
		t.Fatalf("round trip changed the state: pass %d->%d, %d->%d outcomes, %d->%d pass faults, %d->%d tests",
			st.pass, st2.pass, len(st.outcomes), len(st2.outcomes),
			len(st.passFaults), len(st2.passFaults), len(st.tests), len(st2.tests))
	}
	if st.snap != nil && st2.snap != nil &&
		!reflect.DeepEqual(st2.snap.LearnedCubes, st.snap.LearnedCubes) {
		t.Fatalf("round trip changed the lemma store: %v -> %v",
			st.snap.LearnedCubes, st2.snap.LearnedCubes)
	}
}
