package campaign

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"seqatpg/internal/atpg"
	"seqatpg/internal/fault"
	"seqatpg/internal/ioguard"
	"seqatpg/internal/sim"
)

// randomResult builds a synthetic but structurally valid shard result.
func randomResult(rng *rand.Rand, n int) *Result {
	res := &Result{
		Outcomes: make([]atpg.Outcome, n),
		Passes:   rng.Intn(3),
		Resumed:  rng.Intn(2) == 0,
		Stats:    atpg.Stats{Total: n, StatesTraversed: map[uint64]bool{}},
	}
	for i := range res.Outcomes {
		o := atpg.Outcome(rng.Intn(4))
		res.Outcomes[i] = o
		res.Stats.Tally(o)
	}
	res.Stats.Effort = rng.Int63n(1 << 40)
	res.Stats.Backtracks = rng.Int63n(1 << 20)
	res.Stats.LearnHits = rng.Int63n(1 << 10)
	res.Stats.LearnPrunes = rng.Int63n(1 << 10)
	for i := 0; i < rng.Intn(8); i++ {
		res.Stats.StatesTraversed[rng.Uint64()] = true
	}
	for i := 0; i < rng.Intn(4); i++ {
		seq := make([][]sim.Val, 1+rng.Intn(3))
		for f := range seq {
			vec := make([]sim.Val, 1+rng.Intn(5))
			for v := range vec {
				vec[v] = []sim.Val{sim.V0, sim.V1, sim.VX}[rng.Intn(3)]
			}
			seq[f] = vec
		}
		res.Tests = append(res.Tests, seq)
	}
	if n > 0 && rng.Intn(2) == 0 {
		idx := rng.Intn(n)
		res.Outcomes[idx] = atpg.Crashed
		// Rebuild counters after the overwrite.
		st := atpg.Stats{Total: n, StatesTraversed: res.Stats.StatesTraversed,
			Counters: res.Stats.Counters}
		for _, o := range res.Outcomes {
			st.Tally(o)
		}
		res.Stats = st
		res.Crashes = append(res.Crashes, &atpg.FaultCrash{
			Index: idx,
			Fault: fault.Fault{Gate: rng.Intn(50), Pin: rng.Intn(3), SA: sim.V1},
			Panic: "synthetic", Stack: "stack",
		})
	}
	return res
}

func TestResultWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		res := randomResult(rng, rng.Intn(20))
		data, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		back, err := DecodeResult(data)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !reflect.DeepEqual(res.Outcomes, back.Outcomes) {
			t.Fatalf("trial %d: outcomes changed across the wire", trial)
		}
		if !reflect.DeepEqual(res.Stats, back.Stats) {
			t.Fatalf("trial %d: stats changed across the wire:\n%+v\n%+v", trial, res.Stats, back.Stats)
		}
		if !reflect.DeepEqual(res.Tests, back.Tests) {
			t.Fatalf("trial %d: tests changed across the wire", trial)
		}
		if !reflect.DeepEqual(res.Crashes, back.Crashes) {
			t.Fatalf("trial %d: crashes changed across the wire", trial)
		}
		if back.Passes != res.Passes || back.Resumed != res.Resumed {
			t.Fatalf("trial %d: flags changed across the wire", trial)
		}
	}
}

func TestResultWireRejectsDamage(t *testing.T) {
	res := randomResult(rand.New(rand.NewSource(3)), 8)
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"not json":      []byte("{nope"),
		"truncated":     data[:len(data)/2],
		"empty":         nil,
		"wrong version": []byte(`{"version":99,"outcomes":"","stats":{"total":0}}`),
		"bad outcome":   []byte(`{"version":1,"outcomes":"9","stats":{"total":1,"aborted":1}}`),
		"bad counters":  []byte(`{"version":1,"outcomes":"1","stats":{"total":1,"aborted":1}}`),
		"bad total":     []byte(`{"version":1,"outcomes":"1","stats":{"total":5,"detected":1}}`),
		"bad vector":    []byte(`{"version":1,"outcomes":"","tests":[["2"]],"stats":{"total":0}}`),
	}
	for name, payload := range cases {
		if _, err := DecodeResult(payload); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestWireMergeMatchesInMemory pins that decoding shard results from
// their wire form and merging them yields the exact Result an
// in-memory merge of the originals does — the property the fabric
// coordinator's correctness rests on.
func TestWireMergeMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	faults := make([]fault.Fault, 23)
	for i := range faults {
		faults[i] = fault.Fault{Gate: i, Pin: 0, SA: sim.V1}
	}
	for _, shards := range []int{1, 2, 3, 7, 31} {
		idxs := PlanRoundRobin(Config{}, len(faults), shards).Indices()
		direct := make([]*Result, shards)
		wired := make([]*Result, shards)
		for k := 0; k < shards; k++ {
			if len(idxs[k]) == 0 {
				continue
			}
			direct[k] = randomResult(rng, len(idxs[k]))
			data, err := EncodeResult(direct[k])
			if err != nil {
				t.Fatal(err)
			}
			if wired[k], err = DecodeResult(data); err != nil {
				t.Fatal(err)
			}
		}
		a := MergeShardResults(faults, idxs, direct)
		b := MergeShardResults(faults, idxs, wired)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("shards=%d: wire merge diverges from in-memory merge", shards)
		}
	}
}

func TestCheckCheckpointBytes(t *testing.T) {
	st := freshState(3)
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	if err := saveState(ioguard.OS, path, "fp", st); err != nil {
		t.Fatal(err)
	}
	data, err := ioguard.OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCheckpointBytes(data); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	if err := CheckCheckpointBytes(data[:len(data)-20]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	// Flip one payload byte so the CRC no longer verifies while the
	// JSON still parses (the flip lands inside the fingerprint string).
	corrupt := append([]byte(nil), data...)
	k := bytes.Index(corrupt, []byte(`"fp"`))
	if k < 0 {
		t.Fatal("fingerprint not found in checkpoint payload")
	}
	corrupt[k+1] = 'x'
	if err := CheckCheckpointBytes(corrupt); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}
}
