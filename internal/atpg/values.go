// Package atpg implements structural sequential automatic test pattern
// generation over the iterative array model: a 5-valued D-calculus
// (good/faulty value pairs), time-frame-expanded PODEM for fault
// excitation and propagation, backward-time state justification, and
// the per-fault orchestration loop with fault dropping via the PROOFS-
// style fault simulator. The engines of the reproduced paper are thin
// configurations of this core: HITEC (testability-guided, high
// budgets), Attest (random-phase plus deterministic), and SEST (adds
// search-state learning).
//
// The package deliberately depends only on the netlist (and the fault
// and simulation substrates) — never on the FSM or reachability
// packages. Structural ATPG has no knowledge of the state transition
// graph; that ignorance is the paper's core premise.
package atpg

import (
	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// V5 is a composite logic value: the good-circuit rail and the
// faulty-circuit rail, each three-valued. D is {G:1,F:0}; D-bar is
// {G:0,F:1}. Every caller outside the window's evaluator speaks V5;
// the window itself stores each value as a one-byte code (see codeOf)
// and decodes on read.
type V5 struct {
	G, F sim.Val
}

// vx is the fully unknown composite value.
func vx() V5 { return V5{sim.VX, sim.VX} }

// vBoth returns the composite value with both rails at v.
func vBoth(v sim.Val) V5 { return V5{v, v} }

// isD reports a fully developed fault effect (both rails binary and
// different).
func (v V5) isD() bool {
	return v.G != sim.VX && v.F != sim.VX && v.G != v.F
}

// known reports whether both rails are binary.
func (v V5) known() bool { return v.G != sim.VX && v.F != sim.VX }

// equalBoth reports both rails binary and equal.
func (v V5) equalBoth() bool { return v.known() && v.G == v.F }

// evalGate5 computes a gate's composite output from composite fanins by
// evaluating each rail with the three-valued algebra.
func evalGate5(t netlist.GateType, in []V5) V5 {
	gs := make([]sim.Val, len(in))
	fs := make([]sim.Val, len(in))
	for i, v := range in {
		gs[i] = v.G
		fs[i] = v.F
	}
	return V5{sim.EvalGate(t, gs), sim.EvalGate(t, fs)}
}

// controlling returns the controlling input value and output inversion
// for the gate type, and whether the type has a controlling value.
func controlling(t netlist.GateType) (ctrl sim.Val, inv bool, ok bool) {
	switch t {
	case netlist.And:
		return sim.V0, false, true
	case netlist.Nand:
		return sim.V0, true, true
	case netlist.Or:
		return sim.V1, false, true
	case netlist.Nor:
		return sim.V1, true, true
	default:
		return sim.VX, false, false
	}
}

// inverts reports whether the gate type inverts (for backtrace through
// NOT and the inverting multi-input gates).
func inverts(t netlist.GateType) bool {
	switch t {
	case netlist.Not, netlist.Nand, netlist.Nor, netlist.Xnor:
		return true
	}
	return false
}

// Value codes. The window stores a composite value (G, F) as the byte
// codeOf returns: bit G, plus bit 3+F, plus codeD when the pair is D or
// D-bar. ORing the codes of a gate's fanins therefore yields the set of
// values seen on each rail in its low six bits, and codeD when some
// fanin carries a fault effect.
const (
	codeD = 1 << 6
	// code&codeX != 0 exactly when some rail is unknown.
	codeX = 1<<sim.VX | 8<<sim.VX
	// codeOne holds each rail's 1 bit; XORing codes leaves there the
	// parity of the fanins at 1 on that rail.
	codeOne = 1<<sim.V1 | 8<<sim.V1
)

// codeOf returns the code of v.
func codeOf(v V5) uint8 {
	c := uint8(1)<<v.G | 8<<v.F
	if v.isD() {
		c |= codeD
	}
	return c
}

// codeBoth is codeOf(vBoth(v)): bit v plus bit 3+v, never a D.
func codeBoth(v sim.Val) uint8 { return 9 << v }

// The code tables, built once from V5 and sim.EvalGate. Single-code
// tables have 256 entries so any byte indexes them.
var (
	// decode[c] is the V5 whose code is c.
	decode [256]V5
	// notCode[c] is the code of a Not gate whose fanin has code c.
	notCode [256]uint8
	// injCode[sa][c] is code c with its faulty rail stuck at sa.
	injCode [2][256]uint8
	// foldTab[kind-And] folds an And, Or, Nand, Nor, Xor or Xnor gate.
	// The And family depends only on which values occur on each rail,
	// not on how often or on which pin, so its output code is
	// foldTab[kind-And][m&63] for m the OR of the fanin codes. The Xor
	// family depends only on whether a rail saw an X and on the parity
	// of its 1s, so its index is m&codeX | x&codeOne for x the XOR of
	// the fanin codes.
	foldTab [6][64]uint8
)

func init() {
	rails := []sim.Val{sim.V0, sim.V1, sim.VX}
	for _, g := range rails {
		for _, f := range rails {
			v := V5{g, f}
			c := codeOf(v)
			decode[c] = v
			notCode[c] = codeOf(V5{sim.NotV(g), sim.NotV(f)})
			for sa := range injCode {
				injCode[sa][c] = codeOf(V5{g, sim.Val(sa)})
			}
		}
	}
	// A rail's fold bits name a set of values. The list holding each of
	// them once evaluates like every fanin list the bits stand for: to
	// the And family it shows the same values, to the Xor family the
	// same X and, through its one 1, the same parity.
	values := func(set int) (in []sim.Val) {
		for _, v := range rails {
			if set&(1<<v) != 0 {
				in = append(in, v)
			}
		}
		return in
	}
	for kind := netlist.And; kind <= netlist.Xnor; kind++ {
		for m := range foldTab[kind-netlist.And] {
			v := V5{sim.EvalGate(kind, values(m&7)), sim.EvalGate(kind, values(m>>3))}
			foldTab[kind-netlist.And][m] = codeOf(v)
		}
	}
}
