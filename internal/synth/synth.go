// Package synth lowers a symbolic FSM with a chosen state assignment to
// a mapped gate-level netlist, mirroring the SIS flow of the reproduced
// paper: two-level next-state/output covers extracted from the STG,
// unreachable-state don't-cares (the extract_seq_dc analog), espresso-
// style minimization, one of two multi-level scripts (rugged = area-
// driven factoring, delay = shallow two-level trees), technology mapping
// onto a bounded-fanin library, and explicit-reset insertion.
package synth

import (
	"fmt"
	"sort"

	"seqatpg/internal/encode"
	"seqatpg/internal/fsm"
	"seqatpg/internal/logic"
	"seqatpg/internal/netlist"
)

// Script selects the multi-level optimization style, echoing the SIS
// scripts the paper sweeps.
type Script int

// The two synthesis scripts.
const (
	// Rugged factors the minimized covers algebraically and shares
	// structurally identical logic, trading depth for area — the
	// script.rugged analog.
	Rugged Script = iota
	// Delay implements the minimized covers as shallow balanced
	// AND-OR trees with only whole-cube sharing — the script.delay
	// analog.
	Delay
)

// String returns the suffix used in circuit names (.sr/.sd).
func (s Script) String() string {
	switch s {
	case Rugged:
		return "sr"
	case Delay:
		return "sd"
	default:
		return fmt.Sprintf("Script(%d)", int(s))
	}
}

// Options configures the synthesis run.
type Options struct {
	Algorithm encode.Algorithm
	Script    Script
	// UseUnreachableDC feeds the unused state codes to the minimizer as
	// don't-cares (SIS extract_seq_dc). Disabling it is an ablation knob.
	UseUnreachableDC bool
}

// Result carries the synthesized circuit and the artifacts the
// downstream experiments need.
type Result struct {
	Circuit  *netlist.Circuit
	Encoding encode.Encoding
	// NextState and Outputs are the minimized two-level covers over
	// (inputs ++ state bits), kept for inspection and tests.
	NextState []*logic.Cover
	Outputs   []*logic.Cover
}

// Synthesize lowers machine m to a gate-level circuit. The circuit's PI
// order is [reset, machine inputs...]; its DFF order matches the state
// bits of the encoding; its PO order matches the machine outputs.
func Synthesize(m *fsm.FSM, opt Options) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	enc := encode.Assign(m, opt.Algorithm)
	nIn, nBits := m.NumInputs, enc.Bits
	nVars := nIn + nBits

	stateCube := func(code uint64) logic.Cube {
		c := logic.NewCube(nVars)
		for b := 0; b < nBits; b++ {
			if (code>>uint(b))&1 == 1 {
				c[nIn+b] = logic.One
			} else {
				c[nIn+b] = logic.Zero
			}
		}
		return c
	}

	// ON-set extraction from the STG.
	next := make([]*logic.Cover, nBits)
	for j := range next {
		next[j] = logic.NewCover(nVars)
	}
	outs := make([]*logic.Cover, m.NumOutputs)
	for j := range outs {
		outs[j] = logic.NewCover(nVars)
	}
	for _, t := range m.Trans {
		base := stateCube(enc.Code[t.From])
		copy(base[:nIn], t.Input)
		toCode := enc.Code[t.To]
		for j := 0; j < nBits; j++ {
			if (toCode>>uint(j))&1 == 1 {
				next[j].Add(base.Clone())
			}
		}
		for j, v := range t.Output {
			if v == logic.One {
				outs[j].Add(base.Clone())
			}
		}
	}

	// Don't-care set: state codes never assigned to any state
	// (extract_seq_dc). Inputs are fully dashed.
	dc := logic.NewCover(nVars)
	if opt.UseUnreachableDC {
		used := map[uint64]bool{}
		for _, c := range enc.Code {
			used[c] = true
		}
		for code := uint64(0); code < 1<<uint(nBits); code++ {
			if !used[code] {
				dc.Add(stateCube(code))
			}
		}
	}

	for j := range next {
		next[j] = logic.Minimize(next[j], dc)
	}
	for j := range outs {
		outs[j] = logic.Minimize(outs[j], dc)
	}

	name := fmt.Sprintf("%s.%s.%s", m.Name, opt.Algorithm, opt.Script)
	b := newBuilder(name, nIn, nBits)

	nextIDs := make([]int, nBits)
	for j, f := range next {
		nextIDs[j] = b.lowerCover(f, opt.Script)
	}
	outIDs := make([]int, m.NumOutputs)
	for j, f := range outs {
		outIDs[j] = b.lowerCover(f, opt.Script)
	}

	b.finish(nextIDs, outIDs, enc.Code[m.Reset])
	if err := b.c.Validate(); err != nil {
		return nil, fmt.Errorf("synth %s: %w", name, err)
	}
	return &Result{Circuit: b.c, Encoding: enc, NextState: next, Outputs: outs}, nil
}

// builder accumulates the netlist with structural hashing so identical
// subexpressions are shared.
type builder struct {
	c       *netlist.Circuit
	nIn     int
	nBits   int
	varGate []int       // gate id providing each two-level variable
	invOf   map[int]int // driver -> cached inverter output
	strash  map[strashKey]int
	reset   int   // reset PI gate id
	dffs    []int // DFF gate ids (allocated up front, D patched later)
}

func newBuilder(name string, nIn, nBits int) *builder {
	b := &builder{
		c:      netlist.New(name),
		nIn:    nIn,
		nBits:  nBits,
		invOf:  map[int]int{},
		strash: map[strashKey]int{},
	}
	b.reset = b.c.AddGate(netlist.Input, "reset")
	b.c.ResetPI = b.reset
	for i := 0; i < nIn; i++ {
		b.varGate = append(b.varGate, b.c.AddGate(netlist.Input, fmt.Sprintf("in%d", i)))
	}
	for j := 0; j < nBits; j++ {
		// D input patched in finish; temporarily self-referential.
		id := b.c.AddGate(netlist.DFF, fmt.Sprintf("q%d", j), 0)
		b.c.Gates[id].Fanin[0] = id
		b.dffs = append(b.dffs, id)
		b.varGate = append(b.varGate, id)
	}
	return b
}

// not returns a (shared) inverter of the driver.
func (b *builder) not(id int) int {
	if g := b.c.Gates[id]; g.Type == netlist.Not {
		return g.Fanin[0] // double inversion cancels
	}
	if inv, ok := b.invOf[id]; ok {
		return inv
	}
	inv := b.hashed(netlist.Not, id)
	b.invOf[id] = inv
	return inv
}

// strashKey identifies a gate by type and fanins (sorted for the
// commutative types).
type strashKey struct {
	t     netlist.GateType
	n     int
	fanin [netlist.MaxFanin]int
}

// hashed adds a gate unless an identical one exists (type + ordered
// fanins for the commutative types).
func (b *builder) hashed(t netlist.GateType, fanin ...int) int {
	if len(fanin) > netlist.MaxFanin {
		panic(fmt.Sprintf("synth: %d fanins exceed the library bound %d", len(fanin), netlist.MaxFanin))
	}
	key := strashKey{t: t, n: len(fanin)}
	copy(key.fanin[:], fanin)
	switch t {
	case netlist.And, netlist.Or, netlist.Nand, netlist.Nor, netlist.Xor, netlist.Xnor:
		sort.Ints(key.fanin[:key.n])
	}
	if id, ok := b.strash[key]; ok {
		return id
	}
	id := b.c.AddGate(t, "", key.fanin[:key.n]...)
	b.strash[key] = id
	return id
}

// tree reduces ids with the given gate type in balanced groups of at
// most MaxFanin.
func (b *builder) tree(t netlist.GateType, ids []int) int {
	if len(ids) == 0 {
		panic("synth: empty tree")
	}
	for len(ids) > 1 {
		var nextLvl []int
		for i := 0; i < len(ids); i += netlist.MaxFanin {
			end := i + netlist.MaxFanin
			if end > len(ids) {
				end = len(ids)
			}
			group := ids[i:end]
			if len(group) == 1 {
				nextLvl = append(nextLvl, group[0])
			} else {
				nextLvl = append(nextLvl, b.hashed(t, group...))
			}
		}
		ids = nextLvl
	}
	return ids[0]
}

// literal returns the gate id of variable v in the requested phase.
func (b *builder) literal(v int, phase logic.Value) int {
	if phase == logic.One {
		return b.varGate[v]
	}
	return b.not(b.varGate[v])
}

// lowerCube builds the AND of a cube's literals.
func (b *builder) lowerCube(c logic.Cube) int {
	var lits []int
	for v, val := range c {
		if val != logic.Dash {
			lits = append(lits, b.literal(v, val))
		}
	}
	if len(lits) == 0 {
		return b.constant(true)
	}
	if len(lits) == 1 {
		return lits[0]
	}
	return b.tree(netlist.And, lits)
}

// constant returns a shared Const0/Const1 gate.
func (b *builder) constant(one bool) int {
	t := netlist.Const0
	if one {
		t = netlist.Const1
	}
	return b.hashed(t)
}

// lowerCover lowers a minimized two-level cover to gates under the
// chosen script and returns the driving gate id.
func (b *builder) lowerCover(f *logic.Cover, script Script) int {
	if f.IsEmpty() {
		return b.constant(false)
	}
	for _, c := range f.Cubes {
		if c.IsUniverse() {
			return b.constant(true)
		}
	}
	if script == Delay {
		terms := make([]int, len(f.Cubes))
		for i, c := range f.Cubes {
			terms[i] = b.lowerCube(c)
		}
		if len(terms) == 1 {
			return terms[0]
		}
		return b.tree(netlist.Or, terms)
	}
	return b.factor(f)
}

// factor implements quick algebraic factoring: divide out the most
// frequent literal recursively; the structural hash then shares common
// factors across all the functions of the circuit.
func (b *builder) factor(f *logic.Cover) int {
	if len(f.Cubes) == 1 {
		return b.lowerCube(f.Cubes[0])
	}
	// Find the most frequent literal (variable, phase).
	type litKey struct {
		v     int
		phase logic.Value
	}
	counts := map[litKey]int{}
	for _, c := range f.Cubes {
		for v, val := range c {
			if val != logic.Dash {
				counts[litKey{v, val}]++
			}
		}
	}
	var best litKey
	bestN := 0
	for k, n := range counts {
		if n > bestN || (n == bestN && (k.v < best.v || (k.v == best.v && k.phase < best.phase))) {
			best, bestN = k, n
		}
	}
	if bestN <= 1 {
		// No sharing opportunity: two-level this residue.
		terms := make([]int, len(f.Cubes))
		for i, c := range f.Cubes {
			terms[i] = b.lowerCube(c)
		}
		return b.tree(netlist.Or, terms)
	}
	quotient := logic.NewCover(f.NumVars)
	remainder := logic.NewCover(f.NumVars)
	for _, c := range f.Cubes {
		if c[best.v] == best.phase {
			q := c.Clone()
			q[best.v] = logic.Dash
			quotient.Add(q)
		} else {
			remainder.Add(c)
		}
	}
	lit := b.literal(best.v, best.phase)
	var qGate int
	if len(quotient.Cubes) == 1 && quotient.Cubes[0].IsUniverse() {
		qGate = lit
	} else {
		qGate = b.hashed(netlist.And, lit, b.factor(quotient))
	}
	if remainder.IsEmpty() {
		return qGate
	}
	return b.hashed(netlist.Or, qGate, b.factor(remainder))
}

// finish wires the reset multiplexing into the DFF D inputs and creates
// the Output gates. With reset asserted the next state is resetCode
// regardless of the logic; our encodings pin the reset state at code 0,
// but the general form is kept.
func (b *builder) finish(nextIDs, outIDs []int, resetCode uint64) {
	nreset := b.not(b.reset)
	for j, ff := range b.dffs {
		f := nextIDs[j]
		var d int
		if (resetCode>>uint(j))&1 == 1 {
			// D = reset OR f
			d = b.hashed(netlist.Or, b.reset, f)
		} else {
			// D = NOT(reset) AND f
			d = b.hashed(netlist.And, nreset, f)
		}
		b.c.Gates[ff].Fanin[0] = d
	}
	for j, f := range outIDs {
		b.c.AddGate(netlist.Output, fmt.Sprintf("out%d", j), f)
	}
}
