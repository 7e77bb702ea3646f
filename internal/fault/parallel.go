package fault

import (
	"context"
	"sync"

	"seqatpg/internal/sim"
)

// DetectsParallel is Detects with the batches fanned out over a
// bounded worker pool. The good circuit is still simulated exactly
// once; workers are handed pre-partitioned contiguous batch ranges —
// one range per worker, no shared dispatch channel — and each writes a
// disjoint slice of the result, so the detected slice is
// byte-identical to the serial Detects for every worker count. Worker
// scheduling can reorder only the activity counters' accumulation, and
// those are order-independent sums, merged once per worker.
//
// Contiguous ranges also preserve the fault-ordering locality the
// active region feeds on (CollapsedUniverse emits faults gate by gate),
// where round-robin or stealing would interleave unrelated cones.
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

// runAll partitions the batch index space [0, nBatches) into one
// contiguous span per worker. Each worker owns its arena for the whole
// call (counters merge once, on release) and reports into its own error
// slot — no channels, no shared mutable state beyond the final atomic
// stats merge.
func (fs *Simulator) runAll(ctx context.Context, seq [][]sim.Val, faults []Fault, detected []bool, workers int) error {
	nBatches := (len(faults) + FaultsPerPass - 1) / FaultsPerPass
	if workers > nBatches {
		workers = nBatches
	}
	if workers <= 1 {
		bc := fs.getBatchCtx()
		defer fs.putBatchCtx(bc)
		return fs.runRange(bc, ctx, seq, faults, detected, 0, nBatches)
	}
	span := (nBatches + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * span
		hi := min(lo+span, nBatches)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			bc := fs.getBatchCtx()
			defer fs.putBatchCtx(bc)
			errs[w] = fs.runRange(bc, ctx, seq, faults, detected, lo, hi)
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

// runRange simulates batches [lo, hi), checking for cancellation
// between batches.
func (fs *Simulator) runRange(bc *batchCtx, ctx context.Context, seq [][]sim.Val, faults []Fault, detected []bool, lo, hi int) error {
	for b := lo; b < hi; b++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		start := b * FaultsPerPass
		end := min(start+FaultsPerPass, len(faults))
		runBatch(fs, bc, len(seq), faults[start:end], detected[start:end])
	}
	return nil
}
