package atpg

import (
	"sort"

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

// dbCube is one stored blocking cube with its watch counter: sat counts
// how many of its literals the current assignment satisfies, so a full
// cube (sat == len(lits)) is detected in O(1) per assignment.
type dbCube struct {
	lits []cubeLit
	sat  int
}

// cubeDB tracks the decision-variable assignment and the learned
// blocking cubes of one search family (one fault's detect ladder, or
// one justification step). A "conflict" is any assignment that covers a
// stored cube: the covered region was already refuted, so the search
// must not descend into it again.
type cubeDB struct {
	nDFF, nPI int
	val       []int8  // per var: -1 unassigned, else the sim.Val
	level     []int32 // per var: 1-based decision level, 0 = unassigned
	cubes     []dbCube
	byLit     map[int32][]int // literal key -> indices of cubes holding it
	known     map[string]bool // canonical cube keys, for dedup
	fullCount int             // cubes currently fully covered
	capacity  int             // stored-cube bound (LearnCap)
	seeded    int             // cubes [0, seeded) came from the shared lemma store
}

// newCubeDB sizes a store for this engine's window geometry: state bits
// first, then MaxFrames blocks of PIs.
func (e *Engine) newCubeDB() *cubeDB {
	n := len(e.c.DFFs) + e.cfg.MaxFrames*len(e.c.PIs)
	db := &cubeDB{
		nDFF:     len(e.c.DFFs),
		nPI:      len(e.c.PIs),
		val:      make([]int8, n),
		level:    make([]int32, n),
		byLit:    map[int32][]int{},
		known:    map[string]bool{},
		capacity: e.cfg.LearnCap,
	}
	for i := range db.val {
		db.val[i] = -1
	}
	return db
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
		if c.sat == len(c.lits) {
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
		if c.sat == len(c.lits) {
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
		if db.cubes[i].sat == len(db.cubes[i].lits) {
			return i
		}
	}
	return -1
}

func cubeDBKey(lits []cubeLit) string {
	b := make([]byte, 0, len(lits)*6)
	for _, l := range lits {
		b = append(b, byte(l.v), byte(l.v>>8), byte(l.v>>16), byte(l.v>>24), byte(l.val), '|')
	}
	return string(b)
}

// learn stores a blocking cube (literals must be sorted by variable)
// and reports whether it was actually added: duplicates and additions
// past the capacity bound are dropped — the caller may still backjump
// on the computed cube either way.
func (db *cubeDB) learn(lits []cubeLit) bool {
	key := cubeDBKey(lits)
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
	db.cubes = append(db.cubes, dbCube{lits: lits, sat: sat})
	for _, l := range lits {
		k := litKey(l.v, l.val)
		db.byLit[k] = append(db.byLit[k], ci)
	}
	if sat == len(lits) {
		db.fullCount++
	}
	return true
}

// seedLemma installs a shared-store state cube as a blocking cube
// before the search starts; conflicts on seeded cubes are counted as
// shared-cache prunes. Must be called before any assignment.
func (db *cubeDB) seedLemma(cube string) {
	lits := make([]cubeLit, 0, len(cube))
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

// analyzeLine walks the implicit implication graph backward from a
// known line value and collects the decision literals that force it:
// any total assignment extending those literals reproduces the value,
// by induction over the walk (three-valued simulation is monotone, so a
// binary value derived from binary fanins is stable under extension).
// On the faulty rail the injection sites are axioms — they contribute
// no literal, which makes F-rail cubes fault-local and G-rail cubes
// pure good-machine facts. ok=false means the walk escaped the
// analyzable fragment (an unknown value or gate kind); the caller falls
// back to chronological backtracking.
func analyzeLine(w *window, onF bool, frame, pos int, db *cubeDB) ([]cubeLit, bool) {
	type node struct{ t, p int }
	s := w.s
	seen := make(map[int]bool)
	litVal := make(map[int32]sim.Val)
	stack := []node{{frame, pos}}
	addLit := func(v int32, val sim.Val) bool {
		if prev, ok := litVal[v]; ok {
			return prev == val
		}
		litVal[v] = val
		return true
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		key := n.t*w.n + n.p
		if seen[key] {
			continue
		}
		seen[key] = true
		v := railVal(w, onF, n.t, n.p)
		if v == sim.VX {
			return nil, false
		}
		// Stem injection pins the whole faulty-rail value: axiom.
		if onF && n.p == w.fPos && w.fPin < 0 {
			continue
		}
		fan := s.Fanin[s.FaninOff[n.p]:s.FaninOff[n.p+1]]
		injected := func(pin int) bool { return onF && n.p == w.fPos && pin == w.fPin }
		// pinVal is the effective value position n.p sees on a fanin
		// pin, with branch-fault injection applied on the faulty rail.
		pinVal := func(pin int) sim.Val {
			if injected(pin) {
				return w.fSA
			}
			return railVal(w, onF, n.t, int(fan[pin]))
		}
		switch kind := s.Kind[n.p]; kind {
		case netlist.Const0, netlist.Const1:
			// Constants contribute no literal.
		case netlist.Input:
			idx := int(s.PIAt[n.p])
			av := w.piVals[n.t][idx]
			if av == sim.VX || !addLit(db.varOf(pseudoInput{frame: n.t, index: idx}), av) {
				return nil, false
			}
		case netlist.DFF:
			if injected(0) {
				continue // D-pin fault pins the captured faulty value
			}
			if n.t == 0 {
				idx := int(s.DFFAt[n.p])
				av := w.stateVals[idx]
				if av == sim.VX || !addLit(db.varOf(pseudoInput{isState: true, index: idx}), av) {
					return nil, false
				}
			} else {
				stack = append(stack, node{n.t - 1, int(fan[0])})
			}
		case netlist.Buf, netlist.Output, netlist.Not:
			if injected(0) {
				continue
			}
			stack = append(stack, node{n.t, int(fan[0])})
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			ctrl, inv, _ := controlling(kind)
			u := v
			if inv {
				u = sim.NotV(u)
			}
			if u == ctrl {
				// One controlling fanin suffices; take the first in pin
				// order for determinism.
				found := false
				for pin, f := range fan {
					if pinVal(pin) != ctrl {
						continue
					}
					if !injected(pin) {
						stack = append(stack, node{n.t, int(f)})
					}
					found = true
					break
				}
				if !found {
					return nil, false
				}
			} else {
				// Non-controlling output needs every fanin.
				for pin, f := range fan {
					if injected(pin) {
						continue
					}
					stack = append(stack, node{n.t, int(f)})
				}
			}
		case netlist.Xor, netlist.Xnor:
			for pin, f := range fan {
				if injected(pin) {
					continue
				}
				stack = append(stack, node{n.t, int(f)})
			}
		default:
			return nil, false
		}
	}
	lits := make([]cubeLit, 0, len(litVal))
	for v, val := range litVal {
		lits = append(lits, cubeLit{v: v, val: val})
	}
	sort.Slice(lits, func(i, j int) bool { return lits[i].v < lits[j].v })
	return lits, true
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

// seedLemmas installs every stored lemma that contradicts a
// justification target as a blocking cube.
func (e *Engine) seedLemmas(db *cubeDB, targets []targetLine) {
	for _, lc := range e.lemmas.order {
		if lc.Bit < 0 || lc.Bit >= len(e.c.DFFs) {
			continue
		}
		for _, t := range targets {
			if t.bit == lc.Bit && t.val != lc.Val {
				db.seedLemma(lc.Cube)
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
