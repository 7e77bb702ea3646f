package atpg

import (
	"context"
	"reflect"
	"testing"

	"seqatpg/internal/fault"
	"seqatpg/internal/sim"
)

// TestJournal: add keeps the first value and logs a key once, truncate
// rolls back to a mark, and evict drops the oldest entries and keeps
// the rest in arrival order.
func TestJournal(t *testing.T) {
	var j journal[string, int]
	for i, k := range []string{"a", "b", "a", "c", "d", "e"} {
		j.add(k, i)
	}
	if v := j.m["a"]; v != 0 {
		t.Errorf("add replaced a's first value: got %d", v)
	}
	if want := []string{"a", "b", "c", "d", "e"}; !reflect.DeepEqual(j.order, want) {
		t.Errorf("order %v, want %v", j.order, want)
	}
	j.truncate(3)
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(j.keys(), want) || len(j.m) != 3 || j.has("d") {
		t.Errorf("truncate(3) left %v (map %v)", j.order, j.m)
	}
	j.add("d", 9)
	j.evict(2)
	if want := []string{"c", "d"}; !reflect.DeepEqual(j.keys(), want) || len(j.m) != 2 || j.has("a") || j.has("b") {
		t.Errorf("evict(2) left %v (map %v)", j.order, j.m)
	}
	if v, ok := j.m["d"]; !ok || v != 9 {
		t.Errorf("d = %d, %v after evict; want 9, true", v, ok)
	}
	j.evict(5)
	if len(j.order) != 2 {
		t.Errorf("evict above the size dropped entries: %v", j.order)
	}
}

// TestRollbackRestoresLearningStores: learning writes made after a
// fault-boundary mark are undone by rollback in every store, so the
// engine snapshots exactly as it did at the mark. The stores start
// non-empty (a conflict-driven shared-learning run fills them) and the
// writes include keys already present, which must survive rollback.
func TestRollbackRestoresLearningStores(t *testing.T) {
	c := synthC(t, 7, 5)
	cfg := defaultCfg()
	cfg.Learning = true
	cfg.SharedLearning = true
	cfg.ConflictLearning = true
	e := mustEngine(t, c, cfg)
	if _, err := e.RunFaultsCtx(context.Background(), fault.CollapsedUniverse(c)[:30]); err != nil {
		t.Fatal(err)
	}
	if len(e.achieved.order) == 0 || len(e.failedCubes.order) == 0 {
		t.Fatalf("setup run left achieved %d, failed %d entries", len(e.achieved.order), len(e.failedCubes.order))
	}
	rs := &runLoopState{status: make([]Verdict, 2)}
	m := e.mark()
	want := e.buildSnapshot(rs)

	old := e.achieved.order[0]
	e.achieved.add(achievedKey{old.fault, old.bits}, [][]sim.Val{{sim.V1}})
	e.achieved.add(achievedKey{"x|", 5}, [][]sim.Val{{sim.V0}})
	e.achieved.add(achievedKey{"", 6}, [][]sim.Val{{sim.V1}})
	e.failedCubes.add(e.failedCubes.order[0], struct{}{})
	e.failedCubes.add("x|01", struct{}{})
	e.addLemma(LearnedCube{Cube: "1X0", Bit: 1, Val: sim.V1})
	e.Stats.Effort += 100
	e.rollback(m)

	if got := e.buildSnapshot(rs); !reflect.DeepEqual(got, want) {
		t.Errorf("rollback did not restore the mark's snapshot:\n got %+v\nwant %+v", got, want)
	}
	for _, k := range want.FailedCubes {
		if !e.failedCubes.has(k) {
			t.Errorf("failed cube %q lost by rollback", k)
		}
	}
	if e.failedCubes.has("x|01") ||
		e.lemmas.has(LearnedCube{Cube: "1X0", Bit: 1, Val: sim.V1}) || e.achieved.has(achievedKey{"x|", 5}) {
		t.Error("rollback left a write made after the mark in a store's map")
	}
}
