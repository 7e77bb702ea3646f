package netlist

// SoA is a structure-of-arrays view of a circuit, flattened into
// position-indexed parallel slices in one topological order of the
// combinational logic. It exists for the hot paths — levelized
// evaluation in the simulators and the fault-simulation kernel — where
// chasing per-gate pointers (Gate.Fanin is a separate heap object per
// gate) defeats the cache: a levelized sweep over the SoA streams
// through a handful of flat arrays instead.
//
// Positions, not gate ids, index every slice; Pos/Order translate.
// Fanin and Fout are CSR-encoded: the fanins of position p are
// Fanin[FaninOff[p]:FaninOff[p+1]], all at earlier positions, and the
// combinational fanouts (DFF loads excluded — the sequential loop is
// cut at the flip-flops, which read state, not events) are
// Fout[FoutOff[p]:FoutOff[p+1]], all at later positions.
//
// The view is immutable after construction and safe to share across
// goroutines; it does not observe later mutations of the Circuit.
type SoA struct {
	Order []int32 // position -> gate id
	Pos   []int32 // gate id -> position

	Kind     []GateType
	FaninOff []int32
	Fanin    []int32 // fanin positions, in pin order
	FoutOff  []int32
	Fout     []int32 // combinational fanout positions

	PIPos  []int32 // primary-input order -> position
	PIAt   []int32 // position -> primary-input index, -1 otherwise
	POPos  []int32 // primary-output order -> position
	DFFPos []int32 // DFF index -> position of the DFF gate
	DFFD   []int32 // DFF index -> position of its D fanin
	DFFAt  []int32 // position -> DFF index, -1 otherwise

	// DLoad is the inverse of DFFD in CSR form: the DFFs whose D line
	// position p drives are DLoad[DLoadOff[p]:DLoadOff[p+1]], as DFF
	// indices in ascending order. These are the loads Fout leaves out.
	DLoadOff []int32
	DLoad    []int32

	// EvalGates is how many gates an oblivious levelized sweep
	// evaluates per frame (everything except Input and DFF loads);
	// EvalsBefore[p] counts those gates at positions < p, so a sweep
	// from p performs EvalGates - EvalsBefore[p] evaluations.
	EvalGates   int
	EvalsBefore []int32

	// Op and Fan4 are a padded, kind-free view of the fold gates for
	// evaluators that fold fanin values through one table per gate
	// kind. Op[p] is the And…Xnor kind position p evaluates as, minus
	// And: its own kind for And, Or, Nand, Nor, Xor and Xnor, And for
	// Buf and Nand for Not (the one-fanin And and Nand). Sources,
	// Output, DFF and any gate wider than MaxFanin get OpGeneric.
	// Fan4[p] holds p's fanin positions in pin order, and the unused
	// slots hold the pad position NumGates()+1 (all four do for a gate
	// wider than MaxFanin). An evaluator keeps its value there at the
	// identity of its fold, so reading all four slots unconditionally
	// equals walking the CSR fanins. Position NumGates() is left free
	// as caller scratch.
	Op   []uint8
	Fan4 [][MaxFanin]int32
}

// OpGeneric is the Op code of a position that an evaluator must
// evaluate by its kind and CSR fanins.
const OpGeneric uint8 = 0xff

// foldOp returns the Op code of a gate of kind t with nfan fanins.
func foldOp(t GateType, nfan int) uint8 {
	switch {
	case t >= And && t <= Xnor && nfan <= MaxFanin:
		return uint8(t - And)
	case t == Buf && nfan == 1:
		return uint8(And - And)
	case t == Not && nfan == 1:
		return uint8(Nand - And)
	}
	return OpGeneric
}

// NewSoA flattens the circuit into a structure-of-arrays view. It
// fails only when the combinational logic is cyclic (TopoOrder fails).
func NewSoA(c *Circuit) (*SoA, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := len(c.Gates)
	s := &SoA{
		Order:       make([]int32, n),
		Pos:         make([]int32, n),
		Kind:        make([]GateType, n),
		PIAt:        make([]int32, n),
		DFFAt:       make([]int32, n),
		EvalsBefore: make([]int32, n+1),
		Op:          make([]uint8, n),
		Fan4:        make([][MaxFanin]int32, n),
	}
	for p, id := range order {
		s.Order[p] = int32(id)
		s.Pos[id] = int32(p)
	}
	nfan := 0
	for p, id := range order {
		g := &c.Gates[id]
		s.Kind[p] = g.Type
		nfan += len(g.Fanin)
		s.EvalsBefore[p] = int32(s.EvalGates)
		switch g.Type {
		case Input, DFF:
		default:
			s.EvalGates++
		}
	}
	s.EvalsBefore[n] = int32(s.EvalGates)
	fanouts := c.Fanouts()
	s.FaninOff = make([]int32, n+1)
	s.Fanin = make([]int32, 0, nfan)
	s.FoutOff = make([]int32, n+1)
	s.Fout = make([]int32, 0, nfan)
	pad := int32(n + 1)
	for p, id := range order {
		g := &c.Gates[id]
		s.FaninOff[p] = int32(len(s.Fanin))
		for _, f := range g.Fanin {
			s.Fanin = append(s.Fanin, s.Pos[f])
		}
		s.Op[p] = foldOp(g.Type, len(g.Fanin))
		for i := range s.Fan4[p] {
			s.Fan4[p][i] = pad
		}
		if len(g.Fanin) <= MaxFanin {
			copy(s.Fan4[p][:], s.Fanin[s.FaninOff[p]:])
		}
		s.FoutOff[p] = int32(len(s.Fout))
		for _, o := range fanouts[id] {
			if c.Gates[o].Type != DFF {
				s.Fout = append(s.Fout, s.Pos[o])
			}
		}
	}
	s.FaninOff[n] = int32(len(s.Fanin))
	s.FoutOff[n] = int32(len(s.Fout))
	for p := range s.PIAt {
		s.PIAt[p] = -1
		s.DFFAt[p] = -1
	}
	s.PIPos = make([]int32, len(c.PIs))
	for i, id := range c.PIs {
		s.PIPos[i] = s.Pos[id]
		s.PIAt[s.Pos[id]] = int32(i)
	}
	s.POPos = make([]int32, len(c.POs))
	for i, id := range c.POs {
		s.POPos[i] = s.Pos[id]
	}
	s.DFFPos = make([]int32, len(c.DFFs))
	s.DFFD = make([]int32, len(c.DFFs))
	for i, id := range c.DFFs {
		s.DFFPos[i] = s.Pos[id]
		s.DFFD[i] = s.Pos[c.Gates[id].Fanin[0]]
		s.DFFAt[s.Pos[id]] = int32(i)
	}
	s.DLoadOff = make([]int32, n+1)
	for _, d := range s.DFFD {
		s.DLoadOff[d+1]++
	}
	for p := 0; p < n; p++ {
		s.DLoadOff[p+1] += s.DLoadOff[p]
	}
	s.DLoad = make([]int32, len(s.DFFD))
	next := append([]int32(nil), s.DLoadOff[:n]...)
	for i, d := range s.DFFD {
		s.DLoad[next[d]] = int32(i)
		next[d]++
	}
	return s, nil
}

// NumGates returns the node count of the flattened circuit.
func (s *SoA) NumGates() int { return len(s.Kind) }

// NumDFFs returns the flip-flop count of the flattened circuit.
func (s *SoA) NumDFFs() int { return len(s.DFFPos) }
