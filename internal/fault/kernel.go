package fault

import (
	"math/bits"
	"sync/atomic"

	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// FaultsPerPass is the batch capacity of one kernel pass: a sim.PVal
// word carries 64 circuits, and bit 0 is reserved for the broadcast
// good value, so bits 1–63 carry one fault each.
const FaultsPerPass = 63

// xor folds two words rail by rail: a faulty word and its broadcast
// good value give the word's divergence, and back again.
func xor(a, b sim.PVal) sim.PVal { return sim.PVal{Zero: a.Zero ^ b.Zero, One: a.One ^ b.One} }

// at is position q's faulty word for the current frame: the broadcast
// good value with the batch's divergence folded back in.
func at(row []sim.Val, diff []sim.PVal, q int32) sim.PVal {
	return xor(pconstTab[row[q]&3], diff[q])
}

// injection describes where a batch member's fault manifests.
type injection struct {
	bit uint32 // circuit bit carrying the fault
	pin int16  // -1 for output stem, else the fanin branch
	sa  sim.Val
}

// batchCtx is the per-batch arena: every slice the kernel mutates
// while simulating one batch, indexed by topological position (state
// by DFF index) and reused across batches — resetting between batches
// is O(batch), not O(gates). Workers each hold their own arena from
// the simulator's pool.
//
// The arena stores divergence only: diff[p] is the position's faulty
// word XOR its broadcast good value, so it is zero outside the active
// region, and a read is at(row, diff, p). The kernel's core invariant:
// diff is all zero at every frame boundary, and inside a frame it is
// nonzero only at positions evaluated this frame. Event frames restore
// it by zeroing just the touched positions, frames finished by an
// oblivious sweep by one clear. A batch that ends (early exit
// included) leaves diff zero, so the next batch starts without a fill,
// and the good rows change under it for free.
type batchCtx struct {
	diff     []sim.PVal
	touched  []int32 // positions stored by the current event frame
	state    []sim.PVal
	inject   [][]injection // position -> live injections (empty off-site)
	injSites []int32
	sites    []int32  // injSites sorted by position, for the sweep segments
	seed     []uint64 // frame seed bitset: sites that still carry live faults
	pend     []uint64 // pending-event bitset by position
	faninBuf [netlist.MaxFanin]sim.PVal

	// activity counters, accumulated across the batches this arena
	// served and folded into the Simulator's atomics on release
	nbatches, frames, events, evals, fallbacks, earlyExits int64
}

// getBatchCtx fetches (or builds) a batch arena.
func (fs *Simulator) getBatchCtx() *batchCtx {
	if v := fs.pool.Get(); v != nil {
		return v.(*batchCtx)
	}
	n := fs.soa.NumGates()
	return &batchCtx{
		diff:   make([]sim.PVal, n),
		state:  make([]sim.PVal, fs.soa.NumDFFs()),
		inject: make([][]injection, n),
		seed:   make([]uint64, (n+63)/64),
		pend:   make([]uint64, (n+63)/64),
	}
}

// putBatchCtx folds the arena's locally accumulated counters into the
// shared stats — the single point of cross-worker contention, one
// atomic add per counter per release — and returns it to the pool.
func (fs *Simulator) putBatchCtx(bc *batchCtx) {
	atomic.AddInt64(&fs.stats.batches, bc.nbatches)
	atomic.AddInt64(&fs.stats.frames, bc.frames)
	atomic.AddInt64(&fs.stats.events, bc.events)
	atomic.AddInt64(&fs.stats.gateEvals, bc.evals)
	atomic.AddInt64(&fs.stats.avoided, bc.frames*int64(fs.soa.EvalGates)-bc.evals)
	atomic.AddInt64(&fs.stats.fallbacks, bc.fallbacks)
	atomic.AddInt64(&fs.stats.earlyExits, bc.earlyExits)
	bc.nbatches, bc.frames, bc.events, bc.evals, bc.fallbacks, bc.earlyExits = 0, 0, 0, 0, 0, 0
	fs.pool.Put(bc)
}

// runBatch simulates one batch of up to FaultsPerPass faults against
// the shared good rows. Bit i+1 of every word carries faults[i]; a gate
// enters the batch's active region the first frame its word diverges
// from the good row value. The arena's injection tables are cleared on
// return (O(batch)), and its diff row is left zero, so it can serve the
// next batch.
func runBatch(fs *Simulator, bc *batchCtx, frames int, faults []Fault, detected []bool) {
	bc.nbatches++
	for i := range faults {
		f := &faults[i]
		p := fs.soa.Pos[f.Gate]
		if len(bc.inject[p]) == 0 {
			bc.injSites = append(bc.injSites, p)
		}
		bc.inject[p] = append(bc.inject[p], injection{bit: uint32(i + 1), pin: int16(f.Pin), sa: f.SA})
	}
	bc.sites = append(bc.sites[:0], bc.injSites...)
	for i := 1; i < len(bc.sites); i++ { // ≤FaultsPerPass sites: insertion sort
		for j := i; j > 0 && bc.sites[j] < bc.sites[j-1]; j-- {
			bc.sites[j], bc.sites[j-1] = bc.sites[j-1], bc.sites[j]
		}
	}
	for i := range bc.seed {
		bc.seed[i] = 0
	}
	for _, p := range bc.injSites {
		bc.seed[p>>6] |= 1 << (uint32(p) & 63)
	}
	var det, dropped uint64
	full := (uint64(1)<<uint(len(faults)) - 1) << 1 // bits 1..len(faults)
	state := bc.state
	for i := range state {
		state[i] = sim.PVal{} // all X
	}
	threshold := fs.fallbackThreshold()

	// dense remembers that the previous frame's activity exceeded the
	// threshold: the next frame then skips event scheduling entirely and
	// runs the tight full-frame sweep, returning to event mode once the
	// measured active region shrinks again.
	dense := false
	for t := 0; t < frames; t++ {
		row := fs.goodRows[t]
		bc.frames++

		sweptAll := dense
		if dense {
			active := sweepFrom(fs, bc, row, 0)
			bc.evals += int64(fs.soa.EvalGates)
			bc.fallbacks++
			dense = 2*active >= threshold
		} else {
			// Seed the frame's events: injection sites (a batch-constant
			// bitset), and flip-flops whose faulty word diverged from the
			// good state.
			copy(bc.pend, bc.seed)
			for i, p := range fs.soa.DFFPos {
				if state[i] != pconstTab[row[p]&3] {
					bc.pend[p>>6] |= 1 << (uint32(p) & 63)
				}
			}
			// The drain loop is the kernel's single hottest path, so the
			// common event — a combinational gate with no injection — is
			// handled inline over hoisted locals; only injection sites and
			// the register/input loads take the generic evalPos call.
			diff, pend, inject := bc.diff, bc.pend, bc.inject
			kinds := fs.soa.Kind
			fout, foutOff := fs.soa.Fout, fs.soa.FoutOff
			evals, events := 0, 0
		drain:
			for wi := 0; wi < len(pend); wi++ {
				for pend[wi] != 0 {
					b := bits.TrailingZeros64(pend[wi])
					pend[wi] &^= 1 << uint(b)
					p := wi<<6 | b
					if evals >= threshold {
						// Too active: finish the frame obliviously from
						// here. Everything before position p is final —
						// evaluated, or at its good value by the frame
						// invariant — so a plain in-order sweep over the
						// tail is exact.
						for j := wi; j < len(pend); j++ {
							pend[j] = 0
						}
						sweepFrom(fs, bc, row, p)
						evals = int(int32(fs.soa.EvalGates)-fs.soa.EvalsBefore[p]) + evals
						bc.fallbacks++
						dense = true
						sweptAll = true
						break drain
					}
					events++
					if kind := kinds[p]; len(inject[p]) == 0 && kind >= netlist.Output && kind <= netlist.Xnor {
						evals++
						// A position is evaluated at most once per frame
						// (fanouts sit at later positions), so its diff is
						// still zero here.
						if d := xor(foldVals(fs, bc, p, kind, row), pconstTab[row[p]&3]); d.Zero|d.One != 0 {
							diff[p] = d
							bc.touched = append(bc.touched, int32(p))
							for _, o := range fout[foutOff[p]:foutOff[p+1]] {
								pend[o>>6] |= 1 << (uint32(o) & 63)
							}
						}
					} else if evalPos(fs, bc, p, row, false) {
						evals++
					}
				}
			}
			bc.evals += int64(evals)
			bc.events += int64(events)
		}

		// Word-level detection: good binary, faulty binary, different.
		// Against a binary good value the divergence's opposite rail is
		// exactly the faulty bits at the other binary value; an inactive
		// output has no divergence, contributing nothing.
		for _, p := range fs.soa.POPos {
			switch row[p] {
			case sim.V0:
				det |= bc.diff[p].One & full
			case sim.V1:
				det |= bc.diff[p].Zero & full
			}
		}

		if det == full {
			if t+1 < frames {
				bc.earlyExits++
			}
			bc.endFrame(sweptAll)
			break
		}

		// Drop detected faults (the PROOFS fault-drop): their bits no
		// longer matter, so removing their injections and steering their
		// state bits back to the good values shrinks the active region
		// for the rest of the sequence. Undetected bits never read a
		// detected bit — the two-rail algebra is bitwise — so their
		// trajectories are untouched.
		if det != dropped {
			for _, p := range bc.injSites {
				injs := bc.inject[p]
				kept := injs[:0]
				for _, inj := range injs {
					if det>>inj.bit&1 == 0 {
						kept = append(kept, inj)
					}
				}
				bc.inject[p] = kept
			}
			// Sites whose faults are all detected stop seeding frames
			// (and stop segmenting the sweep).
			sites := bc.sites[:0]
			for _, p := range bc.sites {
				if len(bc.inject[p]) != 0 {
					sites = append(sites, p)
				}
			}
			bc.sites = sites
			for i := range bc.seed {
				bc.seed[i] = 0
			}
			for _, p := range bc.sites {
				bc.seed[p>>6] |= 1 << (uint32(p) & 63)
			}
			dropped = det
		}

		// Clock edge: capture D values; a stem fault on the DFF itself
		// (or a branch fault on its D input) pins the next Q value.
		// Detected bits are forced back to the good next state.
		for i, dp := range fs.soa.DFFD {
			w := at(row, bc.diff, dp)
			for _, inj := range bc.inject[fs.soa.DFFPos[i]] {
				if inj.pin <= 0 {
					w.Set(uint(inj.bit), inj.sa)
				}
			}
			g := pconstTab[row[dp]&3]
			w.Zero = w.Zero&^dropped | g.Zero&dropped
			w.One = w.One&^dropped | g.One&dropped
			state[i] = w
		}

		bc.endFrame(sweptAll)
	}
	for i := range faults {
		detected[i] = det>>uint(i+1)&1 == 1
	}
	// Clear the injection tables (O(batch), not O(gates)).
	for _, p := range bc.injSites {
		bc.inject[p] = bc.inject[p][:0]
	}
	bc.injSites = bc.injSites[:0]
}

// endFrame restores the frame invariant: diff all zero. An event frame
// zeroes just the positions it touched; a frame finished by a sweep,
// which stores every position past its start, clears the whole arena.
func (bc *batchCtx) endFrame(swept bool) {
	if swept {
		clear(bc.diff)
	} else {
		for _, q := range bc.touched {
			bc.diff[q] = sim.PVal{}
		}
	}
	bc.touched = bc.touched[:0]
}

// sweepFrom evaluates every position in [from, len) in topological
// order for the current frame — the oblivious kernel, used for a whole
// frame when the previous one showed the active region covering most of
// the circuit (from = 0), and for the tail when the event scheduler
// trips the fallback threshold mid-frame. Each gate's fanins are
// current when it is reached: earlier swept positions were just stored,
// and everything else holds its value by the frame invariant. Because
// the (at most FaultsPerPass) injection sites are visited between
// segments of the sorted site list, the hot loop never touches the
// injection tables at all. It returns the number of positions whose
// word diverges from the good row value, which drives the switch back
// to event mode.
//
// The two-rail folds mirror foldVals (and sim.EvalGateP) exactly.
func sweepFrom(fs *Simulator, bc *batchCtx, row []sim.Val, from int) (active int) {
	diff := bc.diff
	kinds, faninOff, fan := fs.soa.Kind, fs.soa.FaninOff, fs.soa.Fanin
	n0 := 0
	for n0 < len(bc.sites) && int(bc.sites[n0]) < from {
		n0++
	}
	start := from
	for n := n0; n <= len(bc.sites); n++ {
		stop := len(kinds)
		if n < len(bc.sites) {
			stop = int(bc.sites[n])
		}
		for p := start; p < stop; p++ {
			kind := kinds[p]
			off, end := faninOff[p], faninOff[p+1]
			if off == end {
				// Input or constant: equal to good by construction, and
				// its diff is still zero (nothing past from has been
				// stored this frame).
				continue
			}
			w := at(row, diff, fan[off])
			switch kind {
			case netlist.And, netlist.Nand:
				for k := off + 1; k < end; k++ {
					b := at(row, diff, fan[k])
					w.Zero |= b.Zero
					w.One &= b.One
				}
				if kind == netlist.Nand {
					w = sim.PVal{Zero: w.One, One: w.Zero}
				}
			case netlist.Or, netlist.Nor:
				for k := off + 1; k < end; k++ {
					b := at(row, diff, fan[k])
					w.Zero &= b.Zero
					w.One |= b.One
				}
				if kind == netlist.Nor {
					w = sim.PVal{Zero: w.One, One: w.Zero}
				}
			case netlist.Xor, netlist.Xnor:
				for k := off + 1; k < end; k++ {
					b := at(row, diff, fan[k])
					known := (w.Zero | w.One) & (b.Zero | b.One)
					ones := (w.One & b.Zero) | (w.Zero & b.One)
					w.Zero = known &^ ones
					w.One = ones
				}
				if kind == netlist.Xnor {
					w = sim.PVal{Zero: w.One, One: w.Zero}
				}
			case netlist.Not:
				w = sim.PVal{Zero: w.One, One: w.Zero}
			case netlist.Buf, netlist.Output:
				// w is already the single fanin's word.
			case netlist.DFF:
				w = bc.state[fs.soa.DFFAt[p]]
			default:
				in := bc.faninBuf[:end-off]
				for k := off; k < end; k++ {
					in[k-off] = at(row, diff, fan[k])
				}
				w = sim.EvalGateP(kind, in)
			}
			d := xor(w, pconstTab[row[p]&3])
			diff[p] = d
			if d.Zero|d.One != 0 {
				active++
			}
		}
		if n < len(bc.sites) {
			// Injection site: the general event evaluation, oblivious
			// mode (store unconditionally, schedule nothing).
			p := int(bc.sites[n])
			evalPos(fs, bc, p, row, true)
			if d := diff[p]; d.Zero|d.One != 0 {
				active++
			}
		}
		start = stop + 1
	}
	return active
}

// foldVals is the no-injection combinational fold over the frame's
// words, for event positions whose fanins are all current; it mirrors
// the sweep hot loop (and sim.EvalGateP) exactly.
func foldVals(fs *Simulator, bc *batchCtx, p int, kind netlist.GateType, row []sim.Val) sim.PVal {
	diff, fan := bc.diff, fs.soa.Fanin
	off, end := fs.soa.FaninOff[p], fs.soa.FaninOff[p+1]
	if off == end {
		return sim.EvalGateP(kind, nil)
	}
	w := at(row, diff, fan[off])
	switch kind {
	case netlist.And, netlist.Nand:
		for k := off + 1; k < end; k++ {
			b := at(row, diff, fan[k])
			w.Zero |= b.Zero
			w.One &= b.One
		}
		if kind == netlist.Nand {
			w = sim.PVal{Zero: w.One, One: w.Zero}
		}
	case netlist.Or, netlist.Nor:
		for k := off + 1; k < end; k++ {
			b := at(row, diff, fan[k])
			w.Zero &= b.Zero
			w.One |= b.One
		}
		if kind == netlist.Nor {
			w = sim.PVal{Zero: w.One, One: w.Zero}
		}
	case netlist.Xor, netlist.Xnor:
		for k := off + 1; k < end; k++ {
			b := at(row, diff, fan[k])
			known := (w.Zero | w.One) & (b.Zero | b.One)
			ones := (w.One & b.Zero) | (w.Zero & b.One)
			w.Zero = known &^ ones
			w.One = ones
		}
		if kind == netlist.Xnor {
			w = sim.PVal{Zero: w.One, One: w.Zero}
		}
	case netlist.Not:
		w = sim.PVal{Zero: w.One, One: w.Zero}
	case netlist.Buf, netlist.Output:
		// w is already the single fanin's word.
	default:
		in := bc.faninBuf[:end-off]
		for k := off; k < end; k++ {
			in[k-off] = at(row, diff, fan[k])
		}
		w = sim.EvalGateP(kind, in)
	}
	return w
}

// evalPos computes one position's word for the current frame — reading
// fanins through the frame invariant, which keeps them current — and,
// when it diverges from the good value, stores the divergence, records
// the position as touched, and (in event mode) schedules the
// combinational fanouts. In oblivious mode the divergence is always
// stored and nothing is scheduled — the caller sweeps every remaining
// position in topological order anyway. The return value reports
// whether a parallel gate evaluation was performed (false for
// Input/DFF loads, which the oblivious kernel never counted).
//
// Gates carrying a branch fault take the generic gather +
// sim.EvalGateP path so the input-pin faults apply in one place.
func evalPos(fs *Simulator, bc *batchCtx, p int, row []sim.Val, oblivious bool) bool {
	kind := fs.soa.Kind[p]
	injs := bc.inject[p]
	var w sim.PVal
	evaluated := false
	switch {
	case kind == netlist.Input:
		w = pconstTab[row[p]&3]
	case kind == netlist.DFF:
		w = bc.state[fs.soa.DFFAt[p]]
	case len(injs) != 0:
		// Injection site. Stem-only sites (the common case) fold
		// straight over the frame's words like any other gate — the
		// stem bits are patched onto the result below. Only branch
		// (input-pin) faults need the gather-and-patch path.
		evaluated = true
		branch := false
		for _, inj := range injs {
			if inj.pin >= 0 {
				branch = true
				break
			}
		}
		if !branch {
			w = foldVals(fs, bc, p, kind, row)
			break
		}
		off, end := fs.soa.FaninOff[p], fs.soa.FaninOff[p+1]
		in := bc.faninBuf[:end-off]
		for k := off; k < end; k++ {
			in[k-off] = at(row, bc.diff, fs.soa.Fanin[k])
		}
		for _, inj := range injs {
			if inj.pin >= 0 {
				in[inj.pin].Set(uint(inj.bit), inj.sa)
			}
		}
		w = sim.EvalGateP(kind, in)
	default:
		evaluated = true
		w = foldVals(fs, bc, p, kind, row)
	}
	// Stem fault injection on the gate output.
	for _, inj := range injs {
		if inj.pin < 0 {
			w.Set(uint(inj.bit), inj.sa)
		}
	}
	d := xor(w, pconstTab[row[p]&3])
	if oblivious {
		bc.diff[p] = d
		return evaluated
	}
	// Evaluated at most once per frame, so diff[p] is still zero.
	if d.Zero|d.One != 0 {
		bc.diff[p] = d
		bc.touched = append(bc.touched, int32(p))
		for _, o := range fs.soa.Fout[fs.soa.FoutOff[p]:fs.soa.FoutOff[p+1]] {
			bc.pend[o>>6] |= 1 << (uint32(o) & 63)
		}
	}
	return evaluated
}
