// Package sim provides sequential logic simulation for netlist circuits:
// a scalar three-valued (0/1/X) simulator used for initialization and
// test application, and a 64-way bit-parallel pattern simulator used by
// the random phases of the ATPG engines.
package sim

import (
	"fmt"

	"seqatpg/internal/netlist"
)

// Val is a three-valued logic value.
type Val byte

// Three-valued logic constants.
const (
	V0 Val = iota
	V1
	VX
)

// String returns "0", "1" or "X".
func (v Val) String() string {
	switch v {
	case V0:
		return "0"
	case V1:
		return "1"
	default:
		return "X"
	}
}

// NotV returns three-valued NOT.
func NotV(a Val) Val {
	switch a {
	case V0:
		return V1
	case V1:
		return V0
	default:
		return VX
	}
}

// AndV returns three-valued AND over the operands.
func AndV(vals ...Val) Val {
	sawX := false
	for _, v := range vals {
		switch v {
		case V0:
			return V0
		case VX:
			sawX = true
		}
	}
	if sawX {
		return VX
	}
	return V1
}

// OrV returns three-valued OR over the operands.
func OrV(vals ...Val) Val {
	sawX := false
	for _, v := range vals {
		switch v {
		case V1:
			return V1
		case VX:
			sawX = true
		}
	}
	if sawX {
		return VX
	}
	return V0
}

// XorV returns three-valued XOR over the operands.
func XorV(vals ...Val) Val {
	parity := V0
	for _, v := range vals {
		if v == VX {
			return VX
		}
		if v == V1 {
			parity = NotV(parity)
		}
	}
	return parity
}

// andTab/orTab/xorTab/notTab are the three-valued gate functions as
// lookup tables (indexed by Val pairs), the branch-free form the
// levelized Eval sweep folds over.
var (
	andTab = [3][3]Val{
		V0: {V0, V0, V0},
		V1: {V0, V1, VX},
		VX: {V0, VX, VX},
	}
	orTab = [3][3]Val{
		V0: {V0, V1, VX},
		V1: {V1, V1, V1},
		VX: {VX, V1, VX},
	}
	xorTab = [3][3]Val{
		V0: {V0, V1, VX},
		V1: {V1, V0, VX},
		VX: {VX, VX, VX},
	}
	notTab = [3]Val{V1, V0, VX}
)

// EvalGate computes a gate's output from its fanin values.
func EvalGate(t netlist.GateType, in []Val) Val {
	switch t {
	case netlist.Buf, netlist.Output, netlist.DFF:
		return in[0]
	case netlist.Not:
		return NotV(in[0])
	case netlist.And:
		return AndV(in...)
	case netlist.Nand:
		return NotV(AndV(in...))
	case netlist.Or:
		return OrV(in...)
	case netlist.Nor:
		return NotV(OrV(in...))
	case netlist.Xor:
		return XorV(in...)
	case netlist.Xnor:
		return NotV(XorV(in...))
	case netlist.Const0:
		return V0
	case netlist.Const1:
		return V1
	default:
		return VX
	}
}

// Simulator is a scalar three-valued sequential simulator. State lives
// in the DFFs; Step evaluates one clock cycle.
//
// Evaluation runs over the circuit's structure-of-arrays view
// (netlist.SoA): one levelized sweep streams through flat kind/fanin
// arrays by topological position with no per-gate allocation, instead
// of chasing each Gate's separately heap-allocated fanin slice.
type Simulator struct {
	soa   *netlist.SoA
	vals  []Val // per-position value of the current evaluation
	next  []Val // per-DFF captured D value scratch
	state []Val // per-DFF Q value (indexed like c.DFFs)
}

// NewSimulator builds a simulator; the circuit must be valid. All DFFs
// power up at X.
func NewSimulator(c *netlist.Circuit) (*Simulator, error) {
	soa, err := netlist.NewSoA(c)
	if err != nil {
		return nil, err
	}
	return NewSimulatorSoA(soa), nil
}

// NewSimulatorSoA builds a simulator over an existing circuit view. The
// simulator only reads the view, so one view can serve any number of
// simulators. All DFFs power up at X.
func NewSimulatorSoA(soa *netlist.SoA) *Simulator {
	s := &Simulator{
		soa:   soa,
		vals:  make([]Val, soa.NumGates()),
		next:  make([]Val, soa.NumDFFs()),
		state: make([]Val, soa.NumDFFs()),
	}
	s.PowerUp()
	return s
}

// PowerUp sets every DFF to X (the unknown power-on state).
func (s *Simulator) PowerUp() {
	for i := range s.state {
		s.state[i] = VX
	}
}

// SetState forces the DFF values (must match NumDFFs in length).
func (s *Simulator) SetState(vals []Val) error {
	if len(vals) != len(s.state) {
		return fmt.Errorf("sim: state width %d, want %d", len(vals), len(s.state))
	}
	copy(s.state, vals)
	return nil
}

// State returns a copy of the current DFF values.
func (s *Simulator) State() []Val {
	return append([]Val(nil), s.state...)
}

// NumDFFs returns the width of the simulated state.
func (s *Simulator) NumDFFs() int { return len(s.state) }

// StateKnown reports whether every DFF holds a binary value.
func (s *Simulator) StateKnown() bool {
	for _, v := range s.state {
		if v == VX {
			return false
		}
	}
	return true
}

// MaxStateBits is the widest state StateBits can pack: one bit per DFF
// in a uint64.
const MaxStateBits = 64

// StateBits packs a fully known state into a bit vector (bit i = DFF i).
// The second result is false when any DFF is X, or when the circuit has
// more than MaxStateBits DFFs, whose states would not fit.
func (s *Simulator) StateBits() (uint64, bool) {
	if len(s.state) > MaxStateBits {
		return 0, false
	}
	var out uint64
	for i, v := range s.state {
		switch v {
		case V1:
			out |= 1 << uint(i)
		case VX:
			return 0, false
		}
	}
	return out, true
}

// Eval evaluates the combinational logic for the given PI values without
// clocking the DFFs, and returns the PO values.
func (s *Simulator) Eval(inputs []Val) ([]Val, error) {
	if len(inputs) != len(s.soa.PIPos) {
		return nil, fmt.Errorf("sim: %d inputs, want %d", len(inputs), len(s.soa.PIPos))
	}
	for i, p := range s.soa.PIPos {
		s.vals[p] = inputs[i]
	}
	for i, p := range s.soa.DFFPos {
		s.vals[p] = s.state[i]
	}
	kinds, faninOff, fan, vals := s.soa.Kind, s.soa.FaninOff, s.soa.Fanin, s.vals
	for p := range kinds {
		kind := kinds[p]
		off, end := faninOff[p], faninOff[p+1]
		if off == end {
			switch kind {
			case netlist.Const0:
				vals[p] = V0
			case netlist.Const1:
				vals[p] = V1
			case netlist.Input:
				// loaded above
			default:
				vals[p] = VX
			}
			continue
		}
		v := vals[fan[off]]
		switch kind {
		case netlist.Input, netlist.DFF:
			// loaded above
			continue
		case netlist.And, netlist.Nand:
			for k := off + 1; k < end; k++ {
				v = andTab[v][vals[fan[k]]]
			}
			if kind == netlist.Nand {
				v = notTab[v]
			}
		case netlist.Or, netlist.Nor:
			for k := off + 1; k < end; k++ {
				v = orTab[v][vals[fan[k]]]
			}
			if kind == netlist.Nor {
				v = notTab[v]
			}
		case netlist.Xor, netlist.Xnor:
			for k := off + 1; k < end; k++ {
				v = xorTab[v][vals[fan[k]]]
			}
			if kind == netlist.Xnor {
				v = notTab[v]
			}
		case netlist.Not:
			v = notTab[v]
		case netlist.Buf, netlist.Output:
			// v is already the single fanin's value.
		default:
			v = VX
		}
		vals[p] = v
	}
	outs := make([]Val, len(s.soa.POPos))
	for i, p := range s.soa.POPos {
		outs[i] = vals[p]
	}
	return outs, nil
}

// Step evaluates one clock cycle: combinational evaluation at the given
// inputs, then a simultaneous DFF update. Returns the PO values sampled
// before the clock edge.
func (s *Simulator) Step(inputs []Val) ([]Val, error) {
	outs, err := s.Eval(inputs)
	if err != nil {
		return nil, err
	}
	for i, dp := range s.soa.DFFD {
		s.next[i] = s.vals[dp]
	}
	copy(s.state, s.next)
	return outs, nil
}

// Value returns the value of gate id from the latest evaluation.
func (s *Simulator) Value(id int) Val { return s.vals[s.soa.Pos[id]] }
