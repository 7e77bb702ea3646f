package atpg

import (
	"math/bits"
	"sort"

	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// window is an iterative-array view of the circuit: k copies of the
// combinational logic chained through the flip-flops. Frame-0 state
// bits are free pseudo-inputs (to be justified later); the target fault
// (if any) is injected in every frame, as a permanent stuck-at defect
// is present in every time frame.
//
// The window runs on the engine's structure-of-arrays circuit view
// (netlist.SoA), built once per engine and shared read-only by every
// window: values, pending events and snapshot flags are indexed by
// topological position, fanins and fanouts come from the SoA's CSR
// arrays, and PI, DFF and D-line lookups from its position tables. A
// window therefore allocates only its own value rows. Callers speak
// positions too; gate ids appear only where a tie-break is keyed on
// them (SCOAP cost, observability distance).
//
// Simulation is event-driven: setPI/setState mark the touched input
// positions in a per-frame pending bitset, and simulate drains each
// frame's bitset in ascending position order (bits.TrailingZeros64,
// as the fault kernel drains its own). Same-frame fanouts always sit
// at higher positions, so the ascending scan evaluates every gate after
// its changed fanins, in exactly topological order; a change on a D
// line marks the DFF in the next frame. One evaluator serves the drain,
// the per-frame fallback and the full sweep. Values are stored as
// one-byte codes (see codeOf), so ORing the codes of a gate's fanins
// gives the value set each rail sees, plus a bit telling whether some
// pin carries a fault effect; one table lookup turns that set into the
// output code. A fold gate (And…Xnor up to MaxFanin wide, Buf, Not)
// away from the fault site is read through the SoA's per-position
// opcode (its foldTab row) and its fanins padded to four slots: unused
// slots point at the row's sentinel slot n+1, which always holds code
// 0, the identity of the OR and of the Xor parity, so the evaluator
// does four unconditional loads and one lookup, with no kind switch
// and no fanin loop. Sources, Output, wider gates and the faulted
// position keep the kind switch over the CSR fanins. The same call
// stores the code and updates the post-simulation snapshot (PO
// detection, D-frontier membership) with bit tests on it. Callers read
// values as V5 through val, faninVal and dLine, which decode. Whether
// an effect escapes through a last-frame D line is not tracked per
// evaluation; it is checked on query by scanning those D lines. Once a
// frame's cascade reaches 3/4 of the gate count the rest of the frame
// is finished with one oblivious sweep (mirroring the fault kernel's
// fallback); a full sweep is also the uncharged reference pass of
// oblivious verification mode.
type window struct {
	s   *netlist.SoA
	n   int // positions per frame
	k   int
	flt *fault.Fault // nil in good-machine justification mode

	piVals    [][]sim.Val // [frame][pi] assigned values; VX = unassigned
	stateVals []sim.Val   // frame-0 pseudo-input state; VX = unassigned
	// vals holds the value codes, [frame][position]. Slot n of a row
	// is the pin-fault scratch slot; slot n+1 is the sentinel the SoA's
	// padded fanin slots point at, and always holds code 0.
	vals [][]uint8

	// Hoisted fault-injection site: the faulted gate's position, the
	// pin (-1 for a stem fault) and the stuck-at value. fPos is -1 when
	// flt is nil, so no position matches and the non-faulted path never
	// branches on it. For a pin fault, fFan is
	// the faulted gate's fanin list with the pin redirected to the
	// scratch slot n of the row it reads, and fSrc is the pin's real
	// source: only the faulted gate reads the injected value, and no
	// fanin walk compares pins.
	fPos, fPin int
	fSA        sim.Val
	fFan       []int32
	fSrc       int32

	// Event machinery. full forces the next simulate to sweep
	// everything (fresh window, or after invalidate). pend holds one
	// bitset of pending positions per frame, words uint64s each; lo[t]
	// is the lowest word of frame t that may hold a bit (words when the
	// frame has none), so quiet frames cost one compare.
	full  bool
	words int
	pend  []uint64
	lo    []int

	// fallbackEvals is the per-frame event-cascade threshold beyond
	// which the frame is finished with one oblivious sweep: > 0 is an
	// explicit gate count, 0 selects the default of 3/4 of the gate
	// count, < 0 disables the fallback (pure event-driven). The engine
	// always runs the default; the differential tests set the others.
	fallbackEvals int

	// oblivious makes every simulate finish with an uncharged
	// from-scratch sweep + snapshot rebuild. The charged incremental
	// pass still runs first, so effort accounting and all observable
	// results are byte-identical to incremental mode — this is the
	// reference mode the differential tests pin the engine against.
	oblivious bool

	// Post-simulation snapshot, maintained by the evaluator: the problem
	// callbacks read these instead of rescanning the window. frontier
	// is kept sorted by (frame, topological position) — the order the
	// full rescan produces — because objective selection tie-breaks on
	// first encounter.
	poD        []bool // [t*n+p], Output gates only
	poDCount   int
	frontier   []frontierEntry
	inFrontier []bool // [t*n+p]
}

// frontierEntry is a D-frontier gate: frame t, position p.
type frontierEntry struct{ t, p int }

func newWindow(s *netlist.SoA, k int, flt *fault.Fault) *window {
	n := s.NumGates()
	w := &window{
		s:     s,
		n:     n,
		k:     k,
		flt:   flt,
		fPos:  -1,
		fPin:  -1,
		full:  true,
		words: (n + 63) / 64,
	}
	if flt != nil {
		w.fPos, w.fPin, w.fSA = int(s.Pos[flt.Gate]), flt.Pin, flt.SA
		if w.fPin >= 0 {
			w.fFan = append([]int32(nil), s.Fanin[s.FaninOff[w.fPos]:s.FaninOff[w.fPos+1]]...)
			w.fSrc, w.fFan[w.fPin] = w.fFan[w.fPin], int32(n)
		}
	}
	nPI := len(s.PIPos)
	pis := make([]sim.Val, k*nPI+s.NumDFFs())
	for i := range pis {
		pis[i] = sim.VX
	}
	w.piVals = make([][]sim.Val, k)
	for t := range w.piVals {
		w.piVals[t] = pis[t*nPI : (t+1)*nPI : (t+1)*nPI]
	}
	w.stateVals = pis[k*nPI:]
	rows := make([]uint8, k*(n+2))
	w.vals = make([][]uint8, k)
	for t := range w.vals {
		w.vals[t] = rows[t*(n+2) : (t+1)*(n+2) : (t+1)*(n+2)]
	}
	w.pend = make([]uint64, k*w.words)
	w.lo = make([]int, k)
	for t := range w.lo {
		w.lo[t] = w.words
	}
	flags := make([]bool, 2*k*n)
	w.poD = flags[: k*n : k*n]
	w.inFrontier = flags[k*n:]
	return w
}

// setPI assigns a primary input of frame t, marking it pending when the
// value actually changes.
func (w *window) setPI(t, i int, v sim.Val) {
	if w.piVals[t][i] == v {
		return
	}
	w.piVals[t][i] = v
	w.mark(t, int(w.s.PIPos[i]))
}

// setState assigns a frame-0 pseudo-input state bit.
func (w *window) setState(i int, v sim.Val) {
	if w.stateVals[i] == v {
		return
	}
	w.stateVals[i] = v
	w.mark(0, int(w.s.DFFPos[i]))
}

// mark queues position p for re-evaluation in frame t.
func (w *window) mark(t, p int) {
	if w.full {
		return // the next simulate sweeps everything anyway
	}
	wi := p >> 6
	w.pend[t*w.words+wi] |= 1 << uint(p&63)
	if wi < w.lo[t] {
		w.lo[t] = wi
	}
}

// clearPending drops every queued event.
func (w *window) clearPending() {
	clear(w.pend)
	for t := range w.lo {
		w.lo[t] = w.words
	}
}

// invalidate forces the next simulate to recompute the window from
// scratch (used when piVals/stateVals were written directly, bypassing
// setPI/setState — e.g. bulk vector loads).
func (w *window) invalidate() {
	w.full = true
	w.clearPending()
}

// simulate brings the window up to date with the current pseudo-input
// assignments and returns the number of gate evaluations performed (the
// effort charge). A fresh (or invalidated) window costs one full sweep,
// k x gates; after that only the fanout cones of changed inputs are
// re-evaluated. In oblivious mode an additional uncharged reference
// sweep re-derives everything from scratch.
func (w *window) simulate() int {
	evals := w.k * w.n
	if w.full {
		w.full = false
		w.sweepAll()
	} else {
		evals = w.propagate()
		if w.oblivious {
			w.sweepAll()
		}
	}
	return evals
}

// propagate drains the pending bitsets frame by frame, each in
// ascending position order; every evaluation is charged. A changed gate
// marks its same-frame fanouts (all at higher positions, so the scan
// still reaches them) and the DFFs its D line feeds in the next frame.
// Once a frame's cascade reaches the fallback threshold the rest of the
// frame is finished with one oblivious sweep, charged at the full gate
// count.
func (w *window) propagate() int {
	threshold := w.fallbackEvals
	if threshold == 0 {
		threshold = 3 * w.n / 4
	}
	fout, foutOff := w.s.Fout, w.s.FoutOff
	evals := 0
	for t := 0; t < w.k; t++ {
		lo := w.lo[t]
		if lo == w.words {
			continue
		}
		w.lo[t] = w.words
		pend := w.pend[t*w.words : (t+1)*w.words]
		frameEvals := 0
	drain:
		for wi := lo; wi < len(pend); wi++ {
			for pend[wi] != 0 {
				b := bits.TrailingZeros64(pend[wi])
				pend[wi] &^= 1 << uint(b)
				if threshold > 0 && frameEvals >= threshold {
					clear(pend[wi:])
					frameEvals += w.sweepFrame(t)
					break drain
				}
				p := wi<<6 | b
				frameEvals++
				if !w.evalComposite(t, p) {
					continue
				}
				for _, o := range fout[foutOff[p]:foutOff[p+1]] {
					pend[o>>6] |= 1 << (uint32(o) & 63)
				}
				w.markLoads(t, p)
			}
		}
		evals += frameEvals
	}
	return evals
}

// markLoads marks, in frame t+1, every DFF whose D line position p
// drives in frame t.
func (w *window) markLoads(t, p int) {
	if t+1 >= w.k {
		return
	}
	for _, i := range w.s.DLoad[w.s.DLoadOff[p]:w.s.DLoadOff[p+1]] {
		w.mark(t+1, int(w.s.DFFPos[i]))
	}
}

// sweepFrame re-evaluates every gate of frame t in topological order,
// marking the next frame's DFF for every changed D line.
func (w *window) sweepFrame(t int) int {
	for p := 0; p < w.n; p++ {
		if w.evalComposite(t, p) {
			w.markLoads(t, p)
		}
	}
	return w.n
}

// sweepAll clears the snapshot and recomputes every frame from scratch
// through the same evaluator, which rebuilds the snapshot as it goes;
// any queued events are covered by the sweep and dropped.
func (w *window) sweepAll() {
	clear(w.poD)
	clear(w.inFrontier)
	w.frontier = w.frontier[:0]
	w.poDCount = 0
	for t := 0; t < w.k; t++ {
		for p := 0; p < w.n; p++ {
			w.evalComposite(t, p)
		}
	}
	w.clearPending()
}

// evalComposite evaluates position p of frame t on both rails with the
// target fault injected, stores the value code, and reports whether it
// changed. The OR of the fanin codes also tells whether some pin
// carries a fault effect, so the same call updates the snapshot: PO
// detection, and D-frontier membership (an unknown output seeing a
// developed effect on some pin). Membership is refreshed whether or not
// the value changed, because it also depends on the fanin values that
// triggered the evaluation.
//
// A fold gate away from the fault site takes the padded path: four
// unconditional loads through the SoA's Fan4 (unused slots read the
// sentinel slot n+1, whose code 0 is the identity of the OR and of the
// XOR), one foldTab lookup in the row its Op names, no kind switch and
// no fanin loop. Sources, Output, gates wider than MaxFanin and the
// faulted position go through evalGeneric. Only the faulted position
// injects; a fault-free window never matches it, so its rails stay
// equal and its snapshot stays empty.
func (w *window) evalComposite(t, p int) bool {
	vals := w.vals[t]
	// m is the OR of the fanin codes: the value set of each rail in its
	// low six bits, codeD when some pin carries D or D-bar.
	var c, m uint8
	if op := w.s.Op[p]; op != netlist.OpGeneric && p != w.fPos {
		f := &w.s.Fan4[p]
		a, b, d, e := vals[f[0]], vals[f[1]], vals[f[2]], vals[f[3]]
		m = a | b | d | e
		if op < uint8(netlist.Xor-netlist.And) {
			c = foldTab[op][m&63]
		} else {
			c = foldTab[op][m&codeX|(a^b^d^e)&codeOne]
		}
	} else {
		c, m = w.evalGeneric(t, p)
	}
	changed := c != vals[p]
	vals[p] = c

	// Sources walk no fanin (m == 0), so they never join the frontier.
	if member := m&codeD != 0 && c&codeX != 0; member != w.inFrontier[t*w.n+p] {
		w.setFrontier(t, p, member)
	}
	return changed
}

// evalGeneric evaluates position p of frame t by its kind over its CSR
// fanins, injecting the target fault when p is the faulted position,
// and keeps PO detection up to date for an Output. It returns the
// output code and the OR of the fanin codes, as evalComposite's padded
// path does.
func (w *window) evalGeneric(t, p int) (c, m uint8) {
	s := w.s
	vals := w.vals[t]
	fan := s.Fanin[s.FaninOff[p]:s.FaninOff[p+1]]
	stem := false
	if p == w.fPos {
		if w.fPin < 0 {
			stem = true
		} else {
			fan = w.injectPin(t)
		}
	}
	kind := s.Kind[p]
	switch kind {
	case netlist.Input:
		c = codeBoth(w.piVals[t][s.PIAt[p]])
	case netlist.DFF:
		if t == 0 {
			c = codeBoth(w.stateVals[s.DFFAt[p]])
		} else {
			c = w.vals[t-1][fan[0]]
		}
	case netlist.Const0:
		c = codeBoth(sim.V0)
	case netlist.Const1:
		c = codeBoth(sim.V1)
	case netlist.Buf, netlist.Output:
		c = vals[fan[0]]
		m = c
	case netlist.Not:
		m = vals[fan[0]]
		c = notCode[m]
	case netlist.And, netlist.Or, netlist.Nand, netlist.Nor:
		for _, f := range fan {
			m |= vals[f]
		}
		c = foldTab[kind-netlist.And][m&63]
	case netlist.Xor, netlist.Xnor:
		var x uint8
		for _, f := range fan {
			m |= vals[f]
			x ^= vals[f]
		}
		c = foldTab[kind-netlist.And][m&codeX|x&codeOne]
	}
	if stem {
		c = injCode[w.fSA][c]
	}
	if kind == netlist.Output {
		key := t*w.n + p
		if d := c&codeD != 0; d != w.poD[key] {
			w.poD[key] = d
			if d {
				w.poDCount++
			} else {
				w.poDCount--
			}
		}
	}
	return c, m
}

// injectPin prepares a pin fault for evaluating the faulted gate in
// frame t: it loads the scratch slot of the row the pin reads (frame
// t, or frame t-1 for a DFF's D pin) with the pin source's code, faulty
// rail stuck, and returns the fanin list that reads the slot.
func (w *window) injectPin(t int) []int32 {
	row := w.vals[t]
	if w.s.Kind[w.fPos] == netlist.DFF {
		if t == 0 {
			return w.fFan // the frame-0 state is a pseudo-input: no pin is read
		}
		row = w.vals[t-1]
	}
	row[w.n] = injCode[w.fSA][row[w.fSrc]]
	return w.fFan
}

// setFrontier flips position p's frame-t frontier membership, keeping
// the frontier slice sorted by (frame, topological position) — exactly
// the order a full rescan produces, which objective selection
// tie-breaks on.
func (w *window) setFrontier(t, p int, member bool) {
	key := t*w.n + p
	w.inFrontier[key] = member
	i := sort.Search(len(w.frontier), func(i int) bool {
		e := w.frontier[i]
		return e.t*w.n+e.p >= key
	})
	if member {
		w.frontier = append(w.frontier, frontierEntry{})
		copy(w.frontier[i+1:], w.frontier[i:])
		w.frontier[i] = frontierEntry{t, p}
	} else {
		w.frontier = append(w.frontier[:i], w.frontier[i+1:]...)
	}
}

// val returns the composite value at position p of frame t.
func (w *window) val(t, p int) V5 { return decode[w.vals[t][p]] }

// faninVal returns the composite value position p sees on fanin pin at
// frame t, with branch-fault injection applied.
func (w *window) faninVal(t, p, pin int) V5 {
	c := w.vals[t][w.s.Fanin[int(w.s.FaninOff[p])+pin]]
	if p == w.fPos && pin == w.fPin {
		c = injCode[w.fSA][c]
	}
	return decode[c]
}

// dLine returns the composite value state bit i captures at the end of
// frame t: its D line, with a D-pin branch fault applied.
func (w *window) dLine(t, i int) V5 {
	return w.faninVal(t, int(w.s.DFFPos[i]), 0)
}

// detectedAtPO reports whether any primary output in any frame exposes
// the fault (snapshot from the last simulation).
func (w *window) detectedAtPO() bool { return w.poDCount > 0 }

// dFrontier returns the (frame, position) pairs whose output is not
// fully known but which see a developed fault effect on at least one
// fanin (snapshot from the last simulation).
func (w *window) dFrontier() []frontierEntry { return w.frontier }

// dReachesLastState reports whether a developed fault effect sits on a
// DFF D line of the last frame — the effect would escape the window
// into a later time frame. It scans the last frame's D lines when asked
// rather than tracking them on every evaluation.
func (w *window) dReachesLastState() bool {
	for i := range w.s.DFFPos {
		if w.dLine(w.k-1, i).isD() {
			return true
		}
	}
	return false
}

// faultLineGood returns the good value of the faulted line at frame 0
// as of the last simulation (only simulate writes values).
func (w *window) faultLineGood() sim.Val {
	p, _ := w.excitationObjective()
	return w.val(0, p).G
}

// excitationObjective returns the (frame-0) line position and good
// value needed to excite the fault.
func (w *window) excitationObjective() (pos int, val sim.Val) {
	want := sim.V1
	if w.fSA == sim.V1 {
		want = sim.V0
	}
	if w.fPin < 0 {
		return w.fPos, want
	}
	return int(w.s.Fanin[int(w.s.FaninOff[w.fPos])+w.fPin]), want
}

// stateView returns the frame-0 state assignment as a read-only view of
// the live buffer — no allocation. The callers (justification probes)
// only read it while the window is suspended inside an onSolution
// callback, during which nothing mutates stateVals; copy it before any
// retention past that point.
func (w *window) stateView() []sim.Val {
	return w.stateVals
}

// vectors materializes the per-frame input vectors, filling unassigned
// inputs with 0 for determinism.
func (w *window) vectors() [][]sim.Val {
	out := make([][]sim.Val, w.k)
	for t := 0; t < w.k; t++ {
		vec := make([]sim.Val, len(w.piVals[t]))
		for i, v := range w.piVals[t] {
			if v == sim.VX {
				vec[i] = sim.V0
			} else {
				vec[i] = v
			}
		}
		out[t] = vec
	}
	return out
}
