package fabric

import (
	"bytes"
	"testing"

	"seqatpg/internal/atpg"
	"seqatpg/internal/campaign"
	"seqatpg/internal/sim"
)

// FuzzFabricWire throws arbitrary bytes at the shard-result decoder —
// the exact surface a torn or hostile worker response reaches — and
// checks the accept/reject contract: anything DecodeResult accepts
// must re-encode canonically (encode(decode(x)) is a fixed point of
// decode), and nothing may panic.
func FuzzFabricWire(f *testing.F) {
	seed := &campaign.Result{
		Outcomes: []atpg.Outcome{atpg.Detected, atpg.Redundant, atpg.Aborted, atpg.Crashed, atpg.Detected},
		Tests: [][][]sim.Val{
			{{sim.V0, sim.V1, sim.VX}, {sim.V1, sim.V1, sim.V0}},
			{{sim.VX, sim.VX, sim.VX}},
		},
		Stats: atpg.Stats{
			Total: 5, Detected: 2, Redundant: 1, Aborted: 1, Crashed: 1,
			Counters:        atpg.Counters{Effort: 1234, Backtracks: 9},
			StatesTraversed: map[uint64]bool{1: true, 42: true},
		},
		Passes: 2,
	}
	valid, err := campaign.EncodeResult(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(campaignInterruptedSeed(f))
	f.Add([]byte(`{"version":1,"outcomes":"","tests":[],"stats":{"total":0}}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`not json at all`))
	f.Add(valid[:len(valid)/2]) // torn mid-payload

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := campaign.DecodeResult(data)
		if err != nil {
			return
		}
		re, err := campaign.EncodeResult(res)
		if err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
		res2, err := campaign.DecodeResult(re)
		if err != nil {
			t.Fatalf("canonical re-encoding rejected by its own decoder: %v", err)
		}
		re2, err := campaign.EncodeResult(res2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("encode(decode(x)) is not a fixed point")
		}
	})
}

// campaignInterruptedSeed exercises the interrupted-payload branch,
// whose verdict counters are allowed to disagree with the outcomes.
func campaignInterruptedSeed(f *testing.F) []byte {
	f.Helper()
	res := &campaign.Result{
		Outcomes:    []atpg.Outcome{atpg.Aborted, atpg.Aborted},
		Stats:       atpg.Stats{Total: 2, Detected: 1, Aborted: 1, StatesTraversed: map[uint64]bool{}},
		Interrupted: true,
		Resumed:     true,
	}
	data, err := campaign.EncodeResult(res)
	if err != nil {
		f.Fatal(err)
	}
	return data
}
