package atpg

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"seqatpg/internal/fault"
)

// abortingCfg aborts a good share of the test circuit's faults.
func abortingCfg() Config {
	cfg := defaultCfg()
	cfg.FaultBudget = 30_000
	return cfg
}

func abortedOf(res *Result) []int {
	var out []int
	for i, o := range res.Outcomes {
		if o == Aborted {
			out = append(out, i)
		}
	}
	return out
}

// TestRunSourceGrowingMatchesFixed: a run over a source that a second
// goroutine fills one fault at a time finishes exactly like the run
// over the fixed list, and reports every Aborted verdict, in list
// order, as it assigns it.
func TestRunSourceGrowingMatchesFixed(t *testing.T) {
	c := synthC(t, 9, 12)
	faults := fault.CollapsedUniverse(c)[:40]
	ref, err := mustEngine(t, c, abortingCfg()).RunFaults(faults)
	if err != nil {
		t.Fatal(err)
	}
	want := abortedOf(ref)
	if len(want) == 0 || ref.Stats.Detected == 0 {
		t.Fatalf("reference aborts %d and detects %d faults; the test needs both", len(want), ref.Stats.Detected)
	}

	src := NewFaultSource()
	go func() {
		for _, f := range faults {
			src.Add(f)
			runtime.Gosched()
		}
		src.Close()
	}()
	var aborted []int
	res, snap, err := mustEngine(t, c, abortingCfg()).RunSource(context.Background(), src, nil, nil, func(i int) { aborted = append(aborted, i) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted || snap != nil {
		t.Fatal("growing run reported an interruption")
	}
	if !reflect.DeepEqual(res.Stats, ref.Stats) || !reflect.DeepEqual(res.Outcomes, ref.Outcomes) || !reflect.DeepEqual(res.Tests, ref.Tests) {
		t.Errorf("growing run diverges from the fixed list: stats %+v, reference %+v", res.Stats, ref.Stats)
	}
	if !reflect.DeepEqual(aborted, want) {
		t.Errorf("aborts reported %v, want %v", aborted, want)
	}
}

// TestRunSourceResumeReportsHeldAborts: a run restored from a snapshot
// first reports the aborts the snapshot holds, so the resumed run
// alone reports the whole list's aborts in order.
func TestRunSourceResumeReportsHeldAborts(t *testing.T) {
	c := synthC(t, 9, 12)
	faults := fault.CollapsedUniverse(c)[:40]
	ref, err := mustEngine(t, c, abortingCfg()).RunFaults(faults)
	if err != nil {
		t.Fatal(err)
	}
	want := abortedOf(ref)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := mustEngine(t, c, abortingCfg())
	e.TestHook = func(i int, _ fault.Fault) {
		if i > want[0] {
			cancel()
		}
	}
	_, snap, err := e.ResumeFaults(ctx, faults, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Next <= want[0] {
		t.Fatal("the interrupted run holds no abort")
	}
	var aborted []int
	res, _, err := mustEngine(t, c, abortingCfg()).RunSource(context.Background(), Fixed(faults), snap, nil, func(i int) { aborted = append(aborted, i) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Stats, ref.Stats) {
		t.Errorf("resumed stats %+v, reference %+v", res.Stats, ref.Stats)
	}
	if !reflect.DeepEqual(aborted, want) {
		t.Errorf("aborts reported %v, want %v", aborted, want)
	}
}

// TestRunSourceOpenInterrupt: a run over a source that never closes
// blocks (before its first drop pass, or for the next fault) until it
// is cancelled, then stops at a fault boundary with no snapshot, since
// a snapshot covers the whole list. A resume over an open source is
// refused.
func TestRunSourceOpenInterrupt(t *testing.T) {
	c := synthC(t, 9, 12)
	faults := fault.CollapsedUniverse(c)[:10]
	src := NewFaultSource()
	for _, f := range faults {
		src.Add(f)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer time.AfterFunc(50*time.Millisecond, cancel).Stop()
	res, snap, err := mustEngine(t, c, abortingCfg()).RunSource(ctx, src, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || snap != nil {
		t.Fatalf("interrupted=%v snapshot=%v; want an interruption without a snapshot", res.Interrupted, snap != nil)
	}
	if _, _, err := mustEngine(t, c, abortingCfg()).RunSource(context.Background(), src, &Snapshot{Status: make([]byte, len(faults))}, nil, nil); err == nil {
		t.Error("resume over an open source was accepted")
	}
}
