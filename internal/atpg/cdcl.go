package atpg

import (
	"cmp"
	"slices"

	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// Conflict-driven search support: the implicit implication graph over
// the iterative-array window, learned blocking cubes, and the Luby
// restart schedule.
//
// PODEM only ever assigns pseudo-inputs and derives everything else by
// simulation, so the implication graph never needs to be materialized:
// every internal line value is implied by the pseudo-input assignments
// in its structural support, and the antecedent edges are exactly the
// gate fanins (filtered to the fanins that determine the output under
// the current values). analyzeLine recomputes that support on demand by
// walking fanins backward from a conflicting line — the 1-UIP cut of
// this graph is the set of decision variables reached, because every
// decision is itself a UIP when all implications are deterministic
// simulation (there are no clause-propagated intermediate assignments
// to cut through).

// cubeLit is one literal of a learned blocking cube: a window decision
// variable (frame-0 state bit, or a frame-relative PI) pinned to a
// binary value.
type cubeLit struct {
	v   int32
	val sim.Val
}

// dbCube is one stored blocking cube: its literals are
// lits[off:off+n] of the store's arena, and sat counts how many of
// them the current assignment satisfies, so a full cube (sat == n) is
// detected in O(1) per assignment. key is the cube's dedup key and
// next the previous cube stored under the same key (-1 ends the
// chain), so a true key collision is chained, never dropped.
type dbCube struct {
	off, n, sat, next int32
	key               uint64
}

// cubeDB tracks the decision-variable assignment and the learned
// blocking cubes of one search family (one fault's detect ladder, or
// one justification step). A "conflict" is any assignment that covers a
// stored cube: the covered region was already refuted, so the search
// must not descend into it again. Stores come from and go back to the
// engine's cubeStores free list; a released store is cleared to exactly
// its fresh state, keeping only the capacity of its slices and map.
type cubeDB struct {
	nDFF, nPI int
	val       []int8    // per var: -1 unassigned, else the sim.Val
	level     []int32   // per var: 1-based decision level, 0 = unassigned
	lits      []cubeLit // literal arena: every cube's literals, in learn order
	cubes     []dbCube
	byLit     [][]int32        // per litKey: indices of cubes holding it
	known     map[uint64]int32 // dedup key -> newest cube with that key
	keyMask   uint64           // all ones; tests narrow it to force key collisions
	fullCount int              // cubes currently fully covered
	capacity  int              // stored-cube bound (LearnCap)
	seeded    int              // cubes [0, seeded) came from the shared lemma store
}

// cubeStores is an engine's reusable conflict-driven working memory: a
// free list of cube stores, all of one window geometry (state bits
// first, then frames blocks of PIs, so the variable space is dense),
// and analyzeLine's scratch. generate and every justify step take a
// store and give it back on return; justify recurses, so at most
// MaxBackSteps+1 stores (one per justification depth, plus generate's)
// are ever live.
type cubeStores struct {
	nDFF, nPI, frames int
	capacity          int
	free              []*cubeDB
	line              lineScratch
}

func newCubeStores(nDFF, nPI, frames, capacity int) *cubeStores {
	return &cubeStores{nDFF: nDFF, nPI: nPI, frames: frames, capacity: capacity}
}

// acquire returns a cleared store from the free list, or a new one.
func (cs *cubeStores) acquire() *cubeDB {
	if n := len(cs.free); n > 0 {
		db := cs.free[n-1]
		cs.free = cs.free[:n-1]
		return db
	}
	n := cs.nDFF + cs.frames*cs.nPI
	db := &cubeDB{
		nDFF:     cs.nDFF,
		nPI:      cs.nPI,
		val:      make([]int8, n),
		level:    make([]int32, n),
		byLit:    make([][]int32, 2*n),
		known:    map[uint64]int32{},
		keyMask:  ^uint64(0),
		capacity: cs.capacity,
	}
	for i := range db.val {
		db.val[i] = -1
	}
	return db
}

// release clears a store back to its fresh state and returns it to the
// free list: every literal list it touched, its cubes, its dedup keys
// and its assignment.
func (cs *cubeStores) release(db *cubeDB) {
	for _, l := range db.lits {
		k := litKey(l.v, l.val)
		db.byLit[k] = db.byLit[k][:0]
	}
	for _, c := range db.cubes {
		delete(db.known, c.key)
	}
	db.lits = db.lits[:0]
	db.cubes = db.cubes[:0]
	db.seeded = 0
	db.reset()
	cs.free = append(cs.free, db)
}

// varOf maps a pseudo-input to its decision-variable id.
func (db *cubeDB) varOf(pin pseudoInput) int32 {
	if pin.isState {
		return int32(pin.index)
	}
	return int32(db.nDFF + pin.frame*db.nPI + pin.index)
}

// pinOf is the inverse of varOf (for re-pushing an asserting decision).
func (db *cubeDB) pinOf(v int32) pseudoInput {
	if int(v) < db.nDFF {
		return pseudoInput{isState: true, index: int(v)}
	}
	r := int(v) - db.nDFF
	return pseudoInput{frame: r / db.nPI, index: r % db.nPI}
}

func litKey(v int32, val sim.Val) int32 { return v*2 + int32(val) }

// assign records a decision-variable assignment at the given 1-based
// level, bumping the sat counters of every cube holding the literal.
func (db *cubeDB) assign(v int32, val sim.Val, level int32) {
	db.val[v] = int8(val)
	db.level[v] = level
	for _, ci := range db.byLit[litKey(v, val)] {
		c := &db.cubes[ci]
		c.sat++
		if c.sat == c.n {
			db.fullCount++
		}
	}
}

// unassign undoes assign.
func (db *cubeDB) unassign(v int32) {
	val := sim.Val(db.val[v])
	db.val[v] = -1
	db.level[v] = 0
	for _, ci := range db.byLit[litKey(v, val)] {
		c := &db.cubes[ci]
		if c.sat == c.n {
			db.fullCount--
		}
		c.sat--
	}
}

// reset clears all assignment state (but keeps the learned cubes) — the
// entry invariant of every podem run, since an accepted solution leaves
// the previous run's trail in place.
func (db *cubeDB) reset() {
	for i := range db.val {
		db.val[i] = -1
		db.level[i] = 0
	}
	for i := range db.cubes {
		db.cubes[i].sat = 0
	}
	db.fullCount = 0
}

// conflict returns the index of a fully covered cube, lowest index
// first for determinism, or -1.
func (db *cubeDB) conflict() int {
	if db.fullCount == 0 {
		return -1
	}
	for i := range db.cubes {
		if db.cubes[i].sat == db.cubes[i].n {
			return i
		}
	}
	return -1
}

// litsKey hashes sorted literals to a 64-bit dedup key (FNV-1a over the
// literal keys, then a murmur3 finalizer).
func litsKey(lits []cubeLit) uint64 {
	h := uint64(14695981039346656037)
	for _, l := range lits {
		h ^= uint64(uint32(litKey(l.v, l.val)))
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// learn stores a copy of a blocking cube (literals must be sorted by
// variable) and reports whether it was actually added: duplicates and
// additions past the capacity bound are dropped — the caller may still
// backjump on the computed cube either way.
func (db *cubeDB) learn(lits []cubeLit) bool {
	key := litsKey(lits) & db.keyMask
	head, hit := db.known[key]
	if !hit {
		head = -1
	}
	for ci := head; ci >= 0; ci = db.cubes[ci].next {
		if c := db.cubes[ci]; slices.Equal(db.lits[c.off:c.off+c.n], lits) {
			return false
		}
	}
	if db.capacity > 0 && len(db.cubes)-db.seeded >= db.capacity {
		return false
	}
	ci := int32(len(db.cubes))
	off := int32(len(db.lits))
	db.lits = append(db.lits, lits...)
	sat := int32(0)
	for _, l := range lits {
		if db.val[l.v] == int8(l.val) {
			sat++
		}
		k := litKey(l.v, l.val)
		db.byLit[k] = append(db.byLit[k], ci)
	}
	db.cubes = append(db.cubes, dbCube{off: off, n: int32(len(lits)), sat: sat, next: head, key: key})
	db.known[key] = ci // after the append, so release finds every key it must delete
	if int(sat) == len(lits) {
		db.fullCount++
	}
	return true
}

// seedLemma installs a shared-store state cube, parsed by lemmaLits, as
// a blocking cube before the search starts; conflicts on seeded cubes
// are counted as shared-cache prunes. Must be called before any
// assignment.
func (db *cubeDB) seedLemma(lits []cubeLit) {
	if len(lits) == 0 {
		return
	}
	if db.learn(lits) {
		db.seeded = len(db.cubes)
	}
}

// lemmaLits parses a "01X" state cube into its literals; characters
// past the nDFF state bits, and any but '0' and '1', carry none.
func lemmaLits(cube string, nDFF int) []cubeLit {
	var lits []cubeLit
	for i := 0; i < len(cube) && i < nDFF; i++ {
		switch cube[i] {
		case '0':
			lits = append(lits, cubeLit{v: int32(i), val: sim.V0})
		case '1':
			lits = append(lits, cubeLit{v: int32(i), val: sim.V1})
		}
	}
	return lits
}

// witnessKind classifies what a failed problem can tell the analyzer.
type witnessKind int

const (
	// witnessNone: the failure is not a single line-value fact (e.g. a
	// dead D-frontier) — fall back to chronological backtracking.
	witnessNone witnessKind = iota
	// witnessLine: a known value on one line refutes the problem;
	// analyze its support into a blocking cube.
	witnessLine
	// witnessAlways: the problem is unsatisfiable under any assignment
	// (a constant pinned by the fault injection itself contradicts it).
	witnessAlways
)

// conflictWitness locates the refuting line value of a failed problem.
type conflictWitness struct {
	kind  witnessKind
	onF   bool // analyze the faulty rail instead of the good rail
	frame int
	pos   int
}

// railVal reads one rail of the value at position p of frame t.
func railVal(w *window, onF bool, t, p int) sim.Val {
	if onF {
		return w.val(t, p).F
	}
	return w.val(t, p).G
}

// lineNode is one (frame, position) line of an analyzeLine walk.
type lineNode struct{ t, p int32 }

// lineScratch is analyzeLine's reused working memory. Visited lines and
// collected literals are stamped with the walk's generation, so a new
// walk starts clean without clearing anything.
type lineScratch struct {
	gen    uint32
	seen   []uint32  // per window line t*n+p: the generation that walked it
	litGen []uint32  // per var: the generation that collected a literal on it
	litVal []sim.Val // per var: that literal's value
	stack  []lineNode
	lits   []cubeLit
}

// begin starts a walk over lines window lines and vars variables.
func (sc *lineScratch) begin(lines, vars int) {
	sc.gen++
	if sc.gen == 0 {
		clear(sc.seen)
		clear(sc.litGen)
		sc.gen = 1
	}
	if len(sc.seen) < lines {
		sc.seen = make([]uint32, lines)
	}
	if len(sc.litGen) < vars {
		sc.litGen = make([]uint32, vars)
		sc.litVal = make([]sim.Val, vars)
	}
	sc.stack = sc.stack[:0]
	sc.lits = sc.lits[:0]
}

// addLit collects literal v=val, or reports false when the walk already
// needs the opposite value on v.
func (sc *lineScratch) addLit(v int32, val sim.Val) bool {
	if sc.litGen[v] == sc.gen {
		return sc.litVal[v] == val
	}
	sc.litGen[v] = sc.gen
	sc.litVal[v] = val
	sc.lits = append(sc.lits, cubeLit{v: v, val: val})
	return true
}

// analyzeLine walks the implicit implication graph backward from a
// known line value and collects the decision literals that force it:
// any total assignment extending those literals reproduces the value,
// by induction over the walk (three-valued simulation is monotone, so a
// binary value derived from binary fanins is stable under extension).
// On the faulty rail the injection sites are axioms — they contribute
// no literal, which makes F-rail cubes fault-local and G-rail cubes
// pure good-machine facts. ok=false means the walk escaped the
// analyzable fragment (an unknown value or gate kind); the caller falls
// back to chronological backtracking. The literals, sorted by variable,
// live in scratch memory until the next call.
func (cs *cubeStores) analyzeLine(w *window, onF bool, frame, pos int, db *cubeDB) ([]cubeLit, bool) {
	sc := &cs.line
	sc.begin(w.k*w.n, len(db.val))
	if !sc.walk(w, onF, lineNode{int32(frame), int32(pos)}, db) {
		return nil, false
	}
	slices.SortFunc(sc.lits, func(a, b cubeLit) int { return cmp.Compare(a.v, b.v) })
	return sc.lits, true
}

func (sc *lineScratch) walk(w *window, onF bool, root lineNode, db *cubeDB) bool {
	s := w.s
	sc.stack = append(sc.stack, root)
	for len(sc.stack) > 0 {
		n := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		t, p := int(n.t), int(n.p)
		key := t*w.n + p
		if sc.seen[key] == sc.gen {
			continue
		}
		sc.seen[key] = sc.gen
		v := railVal(w, onF, t, p)
		if v == sim.VX {
			return false
		}
		// injPin is the fanin pin a branch fault pins on the faulty
		// rail, -1 for none.
		injPin := -1
		if onF && p == w.fPos {
			if w.fPin < 0 {
				continue // stem injection pins the whole faulty-rail value: axiom
			}
			injPin = w.fPin
		}
		fan := s.Fanin[s.FaninOff[p]:s.FaninOff[p+1]]
		switch kind := s.Kind[p]; kind {
		case netlist.Const0, netlist.Const1:
			// Constants contribute no literal.
		case netlist.Input:
			idx := int(s.PIAt[p])
			av := w.piVals[t][idx]
			if av == sim.VX || !sc.addLit(db.varOf(pseudoInput{frame: t, index: idx}), av) {
				return false
			}
		case netlist.DFF:
			if injPin == 0 {
				continue // D-pin fault pins the captured faulty value
			}
			if t == 0 {
				idx := int(s.DFFAt[p])
				av := w.stateVals[idx]
				if av == sim.VX || !sc.addLit(db.varOf(pseudoInput{isState: true, index: idx}), av) {
					return false
				}
			} else {
				sc.stack = append(sc.stack, lineNode{n.t - 1, fan[0]})
			}
		case netlist.Buf, netlist.Output, netlist.Not:
			if injPin == 0 {
				continue
			}
			sc.stack = append(sc.stack, lineNode{n.t, fan[0]})
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			ctrl, inv, _ := controlling(kind)
			u := v
			if inv {
				u = sim.NotV(u)
			}
			if u != ctrl {
				// Non-controlling output needs every fanin.
				sc.pushFanins(n.t, fan, injPin)
				continue
			}
			// One controlling fanin suffices; take the first in pin order
			// for determinism. The pinned value a branch fault injects
			// counts, but contributes no line to walk.
			found := false
			for pin, f := range fan {
				if pin == injPin {
					found = w.fSA == ctrl
				} else if railVal(w, onF, t, int(f)) == ctrl {
					sc.stack = append(sc.stack, lineNode{n.t, f})
					found = true
				}
				if found {
					break
				}
			}
			if !found {
				return false
			}
		case netlist.Xor, netlist.Xnor:
			sc.pushFanins(n.t, fan, injPin)
		default:
			return false
		}
	}
	return true
}

// pushFanins queues every fanin line of a gate except the injected pin.
func (sc *lineScratch) pushFanins(t int32, fan []int32, injPin int) {
	for pin, f := range fan {
		if pin != injPin {
			sc.stack = append(sc.stack, lineNode{t, f})
		}
	}
}

// stateOnly reports whether every literal is a frame-0 state variable —
// the condition for promoting a good-rail cube to a shared, any-PI
// lemma.
func stateOnly(lits []cubeLit, nDFF int) bool {
	for _, l := range lits {
		if int(l.v) >= nDFF {
			return false
		}
	}
	return true
}

// stateCubeOf renders state-only literals as a "01X" cube string.
func stateCubeOf(lits []cubeLit, nDFF int) string {
	b := make([]byte, nDFF)
	for i := range b {
		b[i] = 'X'
	}
	for _, l := range lits {
		if l.val == sim.V1 {
			b[l.v] = '1'
		} else {
			b[l.v] = '0'
		}
	}
	return string(b)
}

// luby is the Luby restart sequence (1,1,2,1,1,2,4,...), 1-based.
func luby(i int) int64 {
	for k := 1; ; k++ {
		if i == 1<<k-1 {
			return 1 << (k - 1)
		}
		if i < 1<<k-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// lubyUnit is the conflict count multiplying the Luby sequence between
// restarts.
const lubyUnit = 32

// LearnedCube is one shared cross-fault lemma: whenever the previous
// good-machine state satisfies Cube, the next-state bit Bit is forced
// to Val. Published from good-rail (fault-free by construction, even in
// composite windows) justification conflicts whose support is
// state-variables-only — such a cube holds under every fault and every
// input vector, so any justification target demanding the opposite
// value on that bit is refutable the moment the state assignment covers
// the cube.
type LearnedCube struct {
	Cube string  // "01X" over frame-0 state bits
	Bit  int     // forced next-state bit position
	Val  sim.Val // the forced value
}

// addLemma stores a shared lemma unless it is already there, parsing
// its cube into literals once, here, so seeding never re-reads it.
func (e *Engine) addLemma(lc LearnedCube) {
	if !e.lemmas.has(lc) {
		e.lemmas.add(lc, lemmaLits(lc.Cube, len(e.c.DFFs)))
	}
}

// seedLemmas installs every stored lemma that contradicts a
// justification target as a blocking cube.
func (e *Engine) seedLemmas(db *cubeDB, targets []targetLine) {
	for _, lc := range e.lemmas.order {
		if lc.Bit < 0 || lc.Bit >= len(e.c.DFFs) {
			continue
		}
		for _, t := range targets {
			if t.bit == lc.Bit && t.val != lc.Val {
				db.seedLemma(e.lemmas.m[lc])
				break
			}
		}
	}
}

// CubeRecord describes one learned blocking cube for the differential
// replay test hook: the literals, the refuting line and the value the
// analyzer claims those literals force on it.
type CubeRecord struct {
	Lits  []CubeRecordLit
	OnF   bool
	Frame int
	Gate  int
	Val   sim.Val
	K     int // window frame count
}

// CubeRecordLit is one literal of a CubeRecord in pseudo-input terms.
type CubeRecordLit struct {
	IsState bool
	Frame   int
	Index   int
	Val     sim.Val
}
