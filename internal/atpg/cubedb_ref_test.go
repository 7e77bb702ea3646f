package atpg

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"seqatpg/internal/fault"
	"seqatpg/internal/sim"
)

// refCubeDB is the map-based cube store the arena store replaced, kept
// as the differential reference: per-cube literal slices, a map from
// literal to cube indices, and string dedup keys.
type refCubeDB struct {
	nDFF      int
	val       []int8
	cubes     []refCube
	byLit     map[int32][]int
	known     map[string]bool
	fullCount int
	capacity  int
	seeded    int
}

type refCube struct {
	lits []cubeLit
	sat  int
}

func newRefCubeDB(nDFF, nPI, frames, capacity int) *refCubeDB {
	db := &refCubeDB{
		nDFF:     nDFF,
		val:      make([]int8, nDFF+frames*nPI),
		byLit:    map[int32][]int{},
		known:    map[string]bool{},
		capacity: capacity,
	}
	for i := range db.val {
		db.val[i] = -1
	}
	return db
}

func (db *refCubeDB) assign(v int32, val sim.Val) {
	db.val[v] = int8(val)
	for _, ci := range db.byLit[litKey(v, val)] {
		c := &db.cubes[ci]
		c.sat++
		if c.sat == len(c.lits) {
			db.fullCount++
		}
	}
}

func (db *refCubeDB) unassign(v int32) {
	val := sim.Val(db.val[v])
	db.val[v] = -1
	for _, ci := range db.byLit[litKey(v, val)] {
		c := &db.cubes[ci]
		if c.sat == len(c.lits) {
			db.fullCount--
		}
		c.sat--
	}
}

func (db *refCubeDB) reset() {
	for i := range db.val {
		db.val[i] = -1
	}
	for i := range db.cubes {
		db.cubes[i].sat = 0
	}
	db.fullCount = 0
}

func (db *refCubeDB) conflict() int {
	if db.fullCount == 0 {
		return -1
	}
	for i := range db.cubes {
		if db.cubes[i].sat == len(db.cubes[i].lits) {
			return i
		}
	}
	return -1
}

func refKey(lits []cubeLit) string {
	b := make([]byte, 0, len(lits)*6)
	for _, l := range lits {
		b = append(b, byte(l.v), byte(l.v>>8), byte(l.v>>16), byte(l.v>>24), byte(l.val), '|')
	}
	return string(b)
}

func (db *refCubeDB) learn(lits []cubeLit) bool {
	key := refKey(lits)
	if db.known[key] {
		return false
	}
	if db.capacity > 0 && len(db.cubes)-db.seeded >= db.capacity {
		return false
	}
	db.known[key] = true
	sat := 0
	for _, l := range lits {
		if db.val[l.v] == int8(l.val) {
			sat++
		}
	}
	ci := len(db.cubes)
	db.cubes = append(db.cubes, refCube{lits: slices.Clone(lits), sat: sat})
	for _, l := range lits {
		k := litKey(l.v, l.val)
		db.byLit[k] = append(db.byLit[k], ci)
	}
	if sat == len(lits) {
		db.fullCount++
	}
	return true
}

// seedLemma parses the "01X" string itself, as the replaced store did
// on every justification step.
func (db *refCubeDB) seedLemma(cube string) {
	var lits []cubeLit
	for i := 0; i < len(cube) && i < db.nDFF; i++ {
		switch cube[i] {
		case '0':
			lits = append(lits, cubeLit{v: int32(i), val: sim.V0})
		case '1':
			lits = append(lits, cubeLit{v: int32(i), val: sim.V1})
		}
	}
	if len(lits) == 0 {
		return
	}
	if db.learn(lits) {
		db.seeded = len(db.cubes)
	}
}

// TestCubeDBMatchesReference drives the arena store and the map-based
// reference with the same seeded random operations — learning (with
// duplicates), lemma seeding, assignment and unassignment, resets,
// conflict queries, and release-then-reuse — over several window
// geometries, LearnCap values and dedup-key widths. A zero key mask
// makes every cube collide on one 64-bit key, so dedup must compare
// literals and chain, never drop. Every learn result, conflict index,
// fullCount and seeded count must agree.
func TestCubeDBMatchesReference(t *testing.T) {
	geoms := []struct{ nDFF, nPI, frames int }{{1, 1, 1}, {3, 2, 2}, {5, 4, 3}, {12, 6, 6}}
	for gi, g := range geoms {
		for _, capacity := range []int{0, 3, 16, 4096} {
			for _, mask := range []uint64{^uint64(0), 0x3, 0} {
				rng := rand.New(rand.NewSource(int64(gi*1000 + capacity*7 + int(mask&0xF))))
				diffCubeDB(t, rng, g.nDFF, g.nPI, g.frames, capacity, mask)
			}
		}
	}

	// A planted collision: two different cubes under one key are both
	// stored, and each is then a duplicate of itself only.
	db := newCubeStores(3, 1, 1, 0).acquire()
	db.keyMask = 0
	a := []cubeLit{{v: 0, val: sim.V1}}
	b := []cubeLit{{v: 0, val: sim.V0}, {v: 2, val: sim.V1}}
	for i, want := range []bool{true, true, false, false} {
		if got := db.learn([][]cubeLit{a, b}[i%2]); got != want {
			t.Fatalf("planted collision: learn #%d = %v, want %v", i, got, want)
		}
	}
}

func diffCubeDB(t *testing.T, rng *rand.Rand, nDFF, nPI, frames, capacity int, mask uint64) {
	t.Helper()
	nVars := nDFF + frames*nPI
	cs := newCubeStores(nDFF, nPI, frames, capacity)
	db := cs.acquire()
	db.keyMask = mask // release keeps it: the free list hands back this store
	ref := newRefCubeDB(nDFF, nPI, frames, capacity)
	var trail []int32       // assigned vars, oldest first
	var history [][]cubeLit // cubes offered so far, for duplicates
	where := func(op string, step int) string {
		return fmt.Sprintf("%s at step %d (geometry %d/%d/%d, cap %d, mask %#x)",
			op, step, nDFF, nPI, frames, capacity, mask)
	}
	seed := func(step int) {
		for n := rng.Intn(5); n > 0; n-- {
			cube := make([]byte, nDFF+rng.Intn(2))
			for i := range cube {
				cube[i] = "01XX"[rng.Intn(4)]
			}
			db.seedLemma(lemmaLits(string(cube), nDFF))
			ref.seedLemma(string(cube))
			if db.seeded != ref.seeded {
				t.Fatalf("%s: seeded %d, reference %d", where("seedLemma", step), db.seeded, ref.seeded)
			}
		}
	}
	seed(0)
	for step := 1; step <= 1500; step++ {
		op := ""
		switch r := rng.Intn(100); {
		case r < 30:
			op = "learn"
			var lits []cubeLit
			if len(history) > 0 && rng.Intn(3) == 0 {
				lits = history[rng.Intn(len(history))]
			} else {
				for _, v := range rng.Perm(nVars)[:1+rng.Intn(min(4, nVars))] {
					lits = append(lits, cubeLit{v: int32(v), val: sim.Val(rng.Intn(2))})
				}
				slices.SortFunc(lits, func(a, b cubeLit) int { return cmp.Compare(a.v, b.v) })
				history = append(history, lits)
			}
			if got, want := db.learn(lits), ref.learn(lits); got != want {
				t.Fatalf("%s: learn %v = %v, reference %v", where(op, step), lits, got, want)
			}
		case r < 65:
			op = "assign"
			if len(trail) == nVars {
				break
			}
			v := int32(rng.Intn(nVars))
			for db.val[v] >= 0 {
				v = (v + 1) % int32(nVars)
			}
			val := sim.Val(rng.Intn(2))
			trail = append(trail, v)
			db.assign(v, val, int32(len(trail)))
			ref.assign(v, val)
		case r < 90:
			op = "unassign"
			if len(trail) == 0 {
				break
			}
			v := trail[len(trail)-1]
			trail = trail[:len(trail)-1]
			db.unassign(v)
			ref.unassign(v)
		case r < 95:
			op = "reset"
			trail = trail[:0]
			db.reset()
			ref.reset()
		default:
			op = "release"
			cs.release(db)
			if again := cs.acquire(); again != db {
				t.Fatalf("%s: the free list handed out a different store", where(op, step))
			}
			ref = newRefCubeDB(nDFF, nPI, frames, capacity)
			trail, history = trail[:0], history[:0]
			seed(step)
		}
		if got, want := db.conflict(), ref.conflict(); got != want {
			t.Fatalf("%s: conflict %d, reference %d", where(op, step), got, want)
		}
		if db.fullCount != ref.fullCount || db.seeded != ref.seeded {
			t.Fatalf("%s: fullCount %d seeded %d, reference %d and %d",
				where(op, step), db.fullCount, db.seeded, ref.fullCount, ref.seeded)
		}
	}
}

// TestCubeStoreAllocFree pins the allocation-free hot path: on a warmed
// window and store, conflict analysis, a duplicate learn, an assign and
// unassign pair, and a store release and reacquire allocate nothing.
func TestCubeStoreAllocFree(t *testing.T) {
	c := synthC(t, 7, 5)
	cfg := defaultCfg()
	cfg.ConflictLearning = true
	e := mustEngine(t, c, cfg)
	f := fault.CollapsedUniverse(c)[0]
	w := e.newWin(2, &f)
	for i := range w.stateVals {
		w.setState(i, sim.V0)
	}
	for tf := range w.piVals {
		for i := range w.piVals[tf] {
			w.setPI(tf, i, sim.Val(i%2))
		}
	}
	w.simulate()
	db := e.cdcl.acquire()
	var cube []cubeLit
	pos := -1
	for bit := range c.DFFs {
		if lits, ok := e.cdcl.analyzeLine(w, false, 1, int(w.s.DFFD[bit]), db); ok && len(lits) > 0 {
			pos, cube = int(w.s.DFFD[bit]), slices.Clone(lits)
			break
		}
	}
	if pos < 0 {
		t.Fatal("no next-state line analyzed to a non-empty cube")
	}
	if !db.learn(cube) {
		t.Fatal("first learn of the cube was dropped")
	}
	v, val := cube[0].v, cube[0].val
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"analyzeLine", func() { e.cdcl.analyzeLine(w, false, 1, pos, db) }},
		{"learn of an existing cube", func() {
			if db.learn(cube) {
				t.Fatal("duplicate learn stored the cube again")
			}
		}},
		{"assign/unassign", func() { db.assign(v, val, 1); db.unassign(v) }},
		{"release and reacquire", func() { e.cdcl.release(db); db = e.cdcl.acquire(); db.learn(cube) }},
	} {
		if n := testing.AllocsPerRun(100, tc.op); n != 0 {
			t.Errorf("%s: %.1f allocations per run, want 0", tc.name, n)
		}
	}
}
