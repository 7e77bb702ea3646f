package atpg

import (
	"reflect"
	"testing"
)

// TestCountersEveryField walks Counters by reflection, so a counter
// added later is covered without editing the test: Add must sum every
// field, and Negative must notice every field below zero.
func TestCountersEveryField(t *testing.T) {
	var a, b Counters
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	n := va.NumField()
	for i := 0; i < n; i++ {
		va.Field(i).SetInt(int64(i + 1))
		vb.Field(i).SetInt(int64(100 * (i + 1)))
	}
	if a.Negative() || b.Negative() {
		t.Fatal("positive counters reported negative")
	}
	a.Add(b)
	for i := 0; i < n; i++ {
		if got, want := va.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", va.Type().Field(i).Name, got, want)
		}
	}
	for i := 0; i < n; i++ {
		var c Counters
		reflect.ValueOf(&c).Elem().Field(i).SetInt(-1)
		if !c.Negative() {
			t.Errorf("Negative misses %s = -1", va.Type().Field(i).Name)
		}
	}
}

// TestStatsTally: every outcome lands in its own verdict count, and an
// outcome Tally does not know counts as aborted.
func TestStatsTally(t *testing.T) {
	var s Stats
	for _, o := range []Outcome{Detected, Detected, Redundant, Aborted, Crashed, Outcome(99)} {
		s.Tally(o)
	}
	if s.Detected != 2 || s.Redundant != 1 || s.Aborted != 2 || s.Crashed != 1 {
		t.Errorf("Tally: %+v", s)
	}
}

// TestVerdictCodes: the two verdict tables invert each other, a live
// fault reads as aborted, and only the five codes are valid.
func TestVerdictCodes(t *testing.T) {
	for _, o := range []Outcome{Aborted, Detected, Redundant, Crashed} {
		if v := outcomeVerdict[o]; v == verdictLive || v.Outcome() != o {
			t.Errorf("outcome %v → verdict %d → %v", o, v, v.Outcome())
		}
	}
	if verdictLive.Outcome() != Aborted || !verdictCrashed.Valid() || Verdict(5).Valid() {
		t.Error("live verdict or the valid range is wrong")
	}
}

// TestRollbackRestoresCounters: a fault attempt that is cancelled or
// crashes mid-search has its counters restored as a unit, or a resumed
// run would count that attempt's effort twice.
func TestRollbackRestoresCounters(t *testing.T) {
	e := &Engine{}
	e.Stats.Counters = Counters{Unconfirmed: 1, Effort: 2, Backtracks: 3, LearnHits: 4,
		LearnPrunes: 5, LearnedCubes: 6, Backjumps: 7, Restarts: 8}
	before := e.Stats.Counters
	m := e.mark()
	e.Stats.Add(before)
	e.rollback(m)
	if e.Stats.Counters != before {
		t.Errorf("rollback left %+v, want %+v", e.Stats.Counters, before)
	}
}
