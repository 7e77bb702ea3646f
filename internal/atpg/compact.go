package atpg

import (
	"context"
	"runtime"

	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// CompactTests performs reverse-order test-set compaction, the classic
// static compaction companion of deterministic ATPG: sequences are
// fault-simulated in reverse order of generation (late tests, built for
// hard faults, tend to cover many easy ones), and a sequence is kept
// only if it detects at least one fault not covered by the sequences
// already kept. The returned subset detects exactly the same faults as
// the input set.
func CompactTests(c *netlist.Circuit, tests [][][]sim.Val, faults []fault.Fault) ([][][]sim.Val, error) {
	if len(tests) == 0 {
		return nil, nil
	}
	fs, err := fault.NewSimulator(c)
	if err != nil {
		return nil, err
	}
	covered := make([]bool, len(faults))
	var kept [][][]sim.Val
	for i := len(tests) - 1; i >= 0; i-- {
		var live []fault.Fault
		var liveIdx []int
		for k, f := range faults {
			if !covered[k] {
				live = append(live, f)
				liveIdx = append(liveIdx, k)
			}
		}
		if len(live) == 0 {
			break
		}
		det, err := fs.DetectsParallel(context.Background(), tests[i], live, runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, err
		}
		newCoverage := false
		for k, d := range det {
			if d {
				covered[liveIdx[k]] = true
				newCoverage = true
			}
		}
		if newCoverage {
			kept = append(kept, tests[i])
		}
	}
	// Restore generation order.
	for l, r := 0, len(kept)-1; l < r; l, r = l+1, r-1 {
		kept[l], kept[r] = kept[r], kept[l]
	}
	return kept, nil
}
