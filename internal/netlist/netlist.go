// Package netlist defines the gate-level sequential circuit model used
// throughout the project: combinational gates mapped onto a bounded-
// fanin library, edge-triggered D flip-flops, primary inputs/outputs,
// and an explicit reset input (the paper's circuit versions employ an
// explicit reset line). The structural ATPG engines, the fault
// simulator, the retimer and all analyses operate on this model and
// never see the state transition graph.
package netlist

import "fmt"

// GateType enumerates the node kinds of a circuit.
type GateType int

// Gate types. Input gates have no fanin; Output gates observe exactly
// one driver; DFF gates hold state with Fanin[0] as the D input and the
// gate's own value as Q.
const (
	Input GateType = iota
	Output
	Buf
	Not
	And
	Or
	Nand
	Nor
	Xor
	Xnor
	DFF
	Const0
	Const1
)

var typeNames = map[GateType]string{
	Input: "INPUT", Output: "OUTPUT", Buf: "BUF", Not: "NOT",
	And: "AND", Or: "OR", Nand: "NAND", Nor: "NOR",
	Xor: "XOR", Xnor: "XNOR", DFF: "DFF", Const0: "ZERO", Const1: "ONE",
}

// String returns the conventional gate-type mnemonic.
func (t GateType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("GateType(%d)", int(t))
}

// IsCombinational reports whether the gate computes a Boolean function
// of its fanins (i.e. it is not an Input, Output, or DFF).
func (t GateType) IsCombinational() bool {
	switch t {
	case Buf, Not, And, Or, Nand, Nor, Xor, Xnor, Const0, Const1:
		return true
	}
	return false
}

// faninRange gives the legal fanin counts per gate type.
func faninRange(t GateType) (lo, hi int) {
	switch t {
	case Input, Const0, Const1:
		return 0, 0
	case Output, Buf, Not, DFF:
		return 1, 1
	case Xor, Xnor:
		return 2, 2
	case And, Or, Nand, Nor:
		return 2, MaxFanin
	}
	return -1, -1
}

// MaxFanin is the library bound on AND/OR/NAND/NOR width, matching the
// bounded-fanin mcnc-style library the synthesis flow maps onto.
const MaxFanin = 4

// Gate is one node of the circuit. Fanin holds gate ids in input order.
type Gate struct {
	Type  GateType
	Fanin []int
	Name  string
}

// Circuit is a gate-level sequential circuit.
type Circuit struct {
	Name  string
	Gates []Gate
	PIs   []int // Input gate ids, in primary-input order
	POs   []int // Output gate ids, in primary-output order
	DFFs  []int // DFF gate ids, in state-bit order
	// ResetPI is the gate id of the explicit reset input, or -1. When
	// the reset input is 1 the next state is the reset code regardless
	// of the current state.
	ResetPI int
}

// New returns an empty circuit with the given name and no reset line.
func New(name string) *Circuit {
	return &Circuit{Name: name, ResetPI: -1}
}

// AddGate appends a gate and returns its id.
func (c *Circuit) AddGate(t GateType, name string, fanin ...int) int {
	id := len(c.Gates)
	c.Gates = append(c.Gates, Gate{Type: t, Fanin: append([]int(nil), fanin...), Name: name})
	switch t {
	case Input:
		c.PIs = append(c.PIs, id)
	case Output:
		c.POs = append(c.POs, id)
	case DFF:
		c.DFFs = append(c.DFFs, id)
	}
	return id
}

// NumGates returns the total node count (including IO and DFFs).
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumDFFs returns the flip-flop count (the paper's #DFF columns).
func (c *Circuit) NumDFFs() int { return len(c.DFFs) }

// ResetIndex returns the position of the reset line in PIs, or -1 when
// the circuit has none.
func (c *Circuit) ResetIndex() int {
	for i, id := range c.PIs {
		if id == c.ResetPI {
			return i
		}
	}
	return -1
}

// Clone deep-copies the circuit.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{
		Name:    c.Name,
		Gates:   make([]Gate, len(c.Gates)),
		PIs:     append([]int(nil), c.PIs...),
		POs:     append([]int(nil), c.POs...),
		DFFs:    append([]int(nil), c.DFFs...),
		ResetPI: c.ResetPI,
	}
	for i, g := range c.Gates {
		out.Gates[i] = Gate{Type: g.Type, Fanin: append([]int(nil), g.Fanin...), Name: g.Name}
	}
	return out
}

// Fanouts returns, for every gate, the ids of gates that read its value.
func (c *Circuit) Fanouts() [][]int {
	// Count, then fill one backing array. Each entry's capacity ends at
	// its own length, so an append to one entry copies instead of
	// overwriting the next.
	n := make([]int, len(c.Gates))
	total := 0
	for _, g := range c.Gates {
		for _, f := range g.Fanin {
			n[f]++
			total++
		}
	}
	out := make([][]int, len(c.Gates))
	backing, at := make([]int, total), 0
	for id, k := range n {
		if k > 0 {
			out[id] = backing[at : at : at+k]
			at += k
		}
	}
	for id, g := range c.Gates {
		for _, f := range g.Fanin {
			out[f] = append(out[f], id)
		}
	}
	return out
}

// TopoOrder returns the gate ids in a topological order of the
// combinational logic: Inputs, constants and DFFs (as state sources)
// first, then combinational gates, then Outputs. DFF D-inputs are
// sinks, so the sequential loop is cut at the flip-flops. An error is
// returned when the combinational logic contains a cycle.
func (c *Circuit) TopoOrder() ([]int, error) {
	n := len(c.Gates)
	indeg := make([]int, n)
	for id, g := range c.Gates {
		if g.Type == DFF || g.Type == Input || g.Type == Const0 || g.Type == Const1 {
			continue // sources: their fanin does not gate their readiness
		}
		indeg[id] = len(g.Fanin)
	}
	fanouts := c.Fanouts()
	var queue, order []int
	for id := range c.Gates {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, o := range fanouts[id] {
			g := c.Gates[o]
			if g.Type == DFF || g.Type == Input || g.Type == Const0 || g.Type == Const1 {
				continue
			}
			indeg[o]--
			if indeg[o] == 0 {
				queue = append(queue, o)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("netlist %s: combinational cycle detected (%d of %d gates ordered)",
			c.Name, len(order), n)
	}
	return order, nil
}

// Levels returns the combinational depth of each gate: sources are
// level 0, every other gate is 1 + max(fanin levels).
func (c *Circuit) Levels() ([]int, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	lv := make([]int, len(c.Gates))
	for _, id := range order {
		g := c.Gates[id]
		if g.Type == DFF || g.Type == Input || g.Type == Const0 || g.Type == Const1 {
			continue
		}
		maxIn := -1
		for _, f := range g.Fanin {
			if lv[f] > maxIn {
				maxIn = lv[f]
			}
		}
		lv[id] = maxIn + 1
	}
	return lv, nil
}

// Validate checks structural sanity: fanin arities, id ranges, IO/DFF
// bookkeeping consistency, and combinational acyclicity.
func (c *Circuit) Validate() error {
	for id, g := range c.Gates {
		lo, hi := faninRange(g.Type)
		if lo < 0 {
			return fmt.Errorf("netlist %s: gate %d has unknown type %v", c.Name, id, g.Type)
		}
		if len(g.Fanin) < lo || len(g.Fanin) > hi {
			return fmt.Errorf("netlist %s: gate %d (%v) has %d fanins, want %d..%d",
				c.Name, id, g.Type, len(g.Fanin), lo, hi)
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= len(c.Gates) {
				return fmt.Errorf("netlist %s: gate %d references missing gate %d", c.Name, id, f)
			}
			if c.Gates[f].Type == Output {
				return fmt.Errorf("netlist %s: gate %d reads from an Output gate", c.Name, id)
			}
		}
	}
	check := func(ids []int, t GateType, what string) error {
		seen := map[int]bool{}
		for _, id := range ids {
			if id < 0 || id >= len(c.Gates) || c.Gates[id].Type != t {
				return fmt.Errorf("netlist %s: %s list contains non-%v gate %d", c.Name, what, t, id)
			}
			if seen[id] {
				return fmt.Errorf("netlist %s: %s list repeats gate %d", c.Name, what, id)
			}
			seen[id] = true
		}
		// Every gate of type t must be listed.
		count := 0
		for _, g := range c.Gates {
			if g.Type == t {
				count++
			}
		}
		if count != len(ids) {
			return fmt.Errorf("netlist %s: %d %v gates but %d in %s list", c.Name, count, t, len(ids), what)
		}
		return nil
	}
	if err := check(c.PIs, Input, "PI"); err != nil {
		return err
	}
	if err := check(c.POs, Output, "PO"); err != nil {
		return err
	}
	if err := check(c.DFFs, DFF, "DFF"); err != nil {
		return err
	}
	if c.ResetPI >= 0 {
		if c.ResetPI >= len(c.Gates) || c.Gates[c.ResetPI].Type != Input {
			return fmt.Errorf("netlist %s: reset id %d is not an Input gate", c.Name, c.ResetPI)
		}
	}
	_, err := c.TopoOrder()
	return err
}

// Stats summarizes the circuit for reports.
type Stats struct {
	Gates  int // combinational gates only
	DFFs   int
	PIs    int
	POs    int
	Area   float64
	Delay  float64 // critical combinational path delay (library units)
	MaxLvl int
}

// ComputeStats returns counts plus area/delay under the given library.
func (c *Circuit) ComputeStats(lib *Library) (Stats, error) {
	var s Stats
	s.DFFs = len(c.DFFs)
	s.PIs = len(c.PIs)
	s.POs = len(c.POs)
	arrive := make([]float64, len(c.Gates))
	order, err := c.TopoOrder()
	if err != nil {
		return s, err
	}
	lv, err := c.Levels()
	if err != nil {
		return s, err
	}
	for _, id := range order {
		g := c.Gates[id]
		if g.Type.IsCombinational() && g.Type != Const0 && g.Type != Const1 {
			s.Gates++
		}
		s.Area += lib.Area(g.Type, len(g.Fanin))
		switch g.Type {
		case Input, Const0, Const1:
			arrive[id] = 0
		case DFF:
			arrive[id] = lib.Delay(DFF, 1)
		default:
			maxIn := 0.0
			for _, f := range g.Fanin {
				if arrive[f] > maxIn {
					maxIn = arrive[f]
				}
			}
			arrive[id] = maxIn + lib.Delay(g.Type, len(g.Fanin))
		}
		if arrive[id] > s.Delay {
			s.Delay = arrive[id]
		}
		if lv[id] > s.MaxLvl {
			s.MaxLvl = lv[id]
		}
	}
	return s, nil
}
