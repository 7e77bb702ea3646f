package fault

import (
	"context"
	"sync"
	"sync/atomic"

	"seqatpg/internal/sim"
)

// DetectsParallel is Detects with the batches fanned out over a
// bounded worker pool. The good circuit is still simulated exactly
// once; workers take the next batch index from one atomic counter, so
// a worker that drew cheap batches keeps drawing instead of idling
// while another finishes an expensive range. Batch composition is
// fixed by the fault order — the locality the active region feeds on
// lives inside a batch — and each batch writes a disjoint slice of the
// result, so the detected slice is byte-identical to the serial
// Detects for every worker count. Worker scheduling can reorder only
// the activity counters' accumulation, and those are order-independent
// sums, merged once per worker.
//
// workers <= 1 (or a single batch) runs serially on the caller's
// goroutine. A non-nil context error cancels the remaining batches —
// every worker checks between batches — and is returned; batches
// already running finish first.
func (fs *Simulator) DetectsParallel(ctx context.Context, seq [][]sim.Val, faults []Fault, workers int) ([]bool, error) {
	return fs.detects(ctx, seq, faults, workers)
}

// detects runs the shared good-circuit simulation once and then the
// batches. ctx may be nil (the serial entry points).
func (fs *Simulator) detects(ctx context.Context, seq [][]sim.Val, faults []Fault, workers int) ([]bool, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if err := fs.simulateGood(seq); err != nil {
		return nil, err
	}
	detected := make([]bool, len(faults))
	if len(faults) == 0 {
		return detected, nil
	}
	if err := fs.runAll(ctx, seq, faults, detected, workers); err != nil {
		return nil, err
	}
	return detected, nil
}

// runAll hands the batch indices [0, nBatches) out one at a time
// through a shared atomic counter. Each worker owns its arena for the
// whole call (counters merge once, on release) and reports into its own
// error slot — no channels, no shared mutable state beyond the counter
// and the final atomic stats merge.
func (fs *Simulator) runAll(ctx context.Context, seq [][]sim.Val, faults []Fault, detected []bool, workers int) error {
	nBatches := (len(faults) + FaultsPerPass - 1) / FaultsPerPass
	workers = max(1, min(workers, nBatches))
	var next atomic.Int64
	errs := make([]error, workers)
	work := func(w int) {
		bc := fs.getBatchCtx()
		defer fs.putBatchCtx(bc)
		for b := int(next.Add(1) - 1); b < nBatches; b = int(next.Add(1) - 1) {
			if ctx != nil {
				if errs[w] = ctx.Err(); errs[w] != nil {
					return
				}
			}
			start := b * FaultsPerPass
			end := min(start+FaultsPerPass, len(faults))
			runBatch(fs, bc, len(seq), faults[start:end], detected[start:end])
		}
	}
	if workers == 1 {
		work(0)
		return errs[0]
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
