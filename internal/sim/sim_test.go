package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"seqatpg/internal/netlist"
)

func TestThreeValuedOps(t *testing.T) {
	if AndV(V1, VX) != VX || AndV(V0, VX) != V0 || AndV(V1, V1) != V1 {
		t.Error("AndV table wrong")
	}
	if OrV(V0, VX) != VX || OrV(V1, VX) != V1 || OrV(V0, V0) != V0 {
		t.Error("OrV table wrong")
	}
	if XorV(V1, V0) != V1 || XorV(V1, V1) != V0 || XorV(V1, VX) != VX {
		t.Error("XorV table wrong")
	}
	if NotV(VX) != VX || NotV(V0) != V1 {
		t.Error("NotV table wrong")
	}
}

// toggle builds a T-flip-flop: q' = in XOR q, out = q.
func toggle(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("toggle")
	in := c.AddGate(netlist.Input, "in")
	ff := c.AddGate(netlist.DFF, "q", 0)
	x := c.AddGate(netlist.Xor, "x", in, ff)
	c.Gates[ff].Fanin[0] = x
	c.AddGate(netlist.Output, "out", ff)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSimulatorToggle(t *testing.T) {
	c := toggle(t)
	s, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	// Power-up is X; with in=1 the XOR of X stays X.
	outs, err := s.Step([]Val{V1})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0] != VX {
		t.Errorf("powered-up output = %v, want X", outs[0])
	}
	// Force a known state, then toggle twice.
	if err := s.SetState([]Val{V0}); err != nil {
		t.Fatal(err)
	}
	outs, _ = s.Step([]Val{V1})
	if outs[0] != V0 {
		t.Errorf("out = %v, want 0 before the edge", outs[0])
	}
	outs, _ = s.Step([]Val{V1})
	if outs[0] != V1 {
		t.Errorf("out = %v, want 1 after one toggle", outs[0])
	}
	outs, _ = s.Step([]Val{V0})
	if outs[0] != V0 {
		t.Errorf("out = %v, want 0 after two toggles", outs[0])
	}
	// in=0 holds the state.
	outs, _ = s.Step([]Val{V0})
	if outs[0] != V0 {
		t.Errorf("out = %v, want held 0", outs[0])
	}
}

func TestStateBits(t *testing.T) {
	c := toggle(t)
	s, _ := NewSimulator(c)
	if _, ok := s.StateBits(); ok {
		t.Error("all-X state must not pack")
	}
	s.SetState([]Val{V1})
	bits, ok := s.StateBits()
	if !ok || bits != 1 {
		t.Errorf("StateBits = %d,%v", bits, ok)
	}
	if !s.StateKnown() {
		t.Error("state should be known")
	}
}

// TestStateBitsTooWide: a known state of more than MaxStateBits DFFs
// does not fit the packed word, so it must not pack (1<<64 would alias
// DFF 64 onto nothing).
func TestStateBitsTooWide(t *testing.T) {
	c := netlist.New("wide")
	in := c.AddGate(netlist.Input, "in")
	for i := 0; i <= MaxStateBits; i++ {
		c.AddGate(netlist.Output, "", c.AddGate(netlist.DFF, "", in))
	}
	s, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	state := make([]Val, MaxStateBits+1)
	for i := range state {
		state[i] = V0
	}
	state[MaxStateBits] = V1
	if err := s.SetState(state); err != nil {
		t.Fatal(err)
	}
	if bits, ok := s.StateBits(); ok {
		t.Errorf("%d-DFF state packed as %#x", len(state), bits)
	}
}

func TestEvalDoesNotClock(t *testing.T) {
	c := toggle(t)
	s, _ := NewSimulator(c)
	s.SetState([]Val{V0})
	s.Eval([]Val{V1})
	if s.State()[0] != V0 {
		t.Error("Eval must not clock the DFFs")
	}
}

func TestSimulatorWidthErrors(t *testing.T) {
	c := toggle(t)
	s, _ := NewSimulator(c)
	if _, err := s.Step([]Val{V1, V0}); err == nil {
		t.Error("wrong input width must error")
	}
	if err := s.SetState([]Val{V0, V0}); err == nil {
		t.Error("wrong state width must error")
	}
}

// randomComb builds a random combinational circuit over nIn inputs with
// nGates gates of up to three fanins, one output observing the last
// gate.
func randomComb(rng *rand.Rand, nIn, nGates int) *netlist.Circuit {
	c := netlist.New("rand")
	for i := 0; i < nIn; i++ {
		c.AddGate(netlist.Input, "")
	}
	last := 0
	for i := 0; i < nGates; i++ {
		types := []netlist.GateType{netlist.And, netlist.Or, netlist.Nand, netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Not}
		gt := types[rng.Intn(len(types))]
		n := 2 + rng.Intn(2)
		if gt == netlist.Not {
			n = 1
		}
		fanin := make([]int, n)
		for k := range fanin {
			fanin[k] = rng.Intn(len(c.Gates))
		}
		last = c.AddGate(gt, "", fanin...)
	}
	c.AddGate(netlist.Output, "o", last)
	return c
}

// Property: evaluating a circuit on 64 patterns packed into PVal words
// with EvalGateP agrees, gate by gate, with 64 scalar simulations.
func TestParallelMatchesScalar(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomComb(rng, 4, 12)
		order, err := c.TopoOrder()
		if err != nil {
			return false
		}
		// 64 random scalar input vectors, packed.
		scalarIn := make([][]Val, 64)
		words := make([]PVal, len(c.Gates))
		for p := 0; p < 64; p++ {
			scalarIn[p] = make([]Val, len(c.PIs))
			for i, id := range c.PIs {
				v := Val(rng.Intn(3))
				scalarIn[p][i] = v
				words[id].Set(uint(p), v)
			}
		}
		for _, id := range order {
			g := c.Gates[id]
			if g.Type == netlist.Input {
				continue
			}
			in := make([]PVal, len(g.Fanin))
			for k, f := range g.Fanin {
				in[k] = words[f]
			}
			words[id] = EvalGateP(g.Type, in)
		}
		for p := 0; p < 64; p++ {
			s, err := NewSimulator(c)
			if err != nil {
				return false
			}
			if _, err := s.Step(scalarIn[p]); err != nil {
				return false
			}
			for id := range c.Gates {
				if get(words[id], uint(p)) != s.Value(id) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// get extracts pattern i's value from a parallel word.
func get(p PVal, i uint) Val {
	switch {
	case (p.Zero>>i)&1 == 1:
		return V0
	case (p.One>>i)&1 == 1:
		return V1
	default:
		return VX
	}
}

func TestPValEncoding(t *testing.T) {
	var p PVal
	p.Set(3, V1)
	p.Set(5, V0)
	if get(p, 3) != V1 || get(p, 5) != V0 || get(p, 0) != VX {
		t.Error("PVal set/get broken")
	}
	p.Set(3, V0)
	if get(p, 3) != V0 {
		t.Error("PVal overwrite broken")
	}
	p.Set(3, VX)
	if get(p, 3) != VX {
		t.Error("PVal X overwrite broken")
	}
}

// Property: two-rail gates never produce the illegal both-bits state.
func TestTwoRailNeverIllegal(t *testing.T) {
	f := func(a0, a1, b0, b1 uint64) bool {
		a := PVal{Zero: a0 &^ a1, One: a1 &^ a0}
		b := PVal{Zero: b0 &^ b1, One: b1 &^ b0}
		for _, r := range []PVal{pand(a, b), por(a, b), pxor(a, b), pnot(a)} {
			if r.Zero&r.One != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEvalGateAllTypes pins the full 3-valued gate semantics.
func TestEvalGateAllTypes(t *testing.T) {
	cases := []struct {
		t    netlist.GateType
		in   []Val
		want Val
	}{
		{netlist.Buf, []Val{V1}, V1},
		{netlist.Not, []Val{V0}, V1},
		{netlist.And, []Val{V1, V1, V1}, V1},
		{netlist.And, []Val{V1, VX, V0}, V0},
		{netlist.Nand, []Val{V1, V1}, V0},
		{netlist.Nand, []Val{VX, V1}, VX},
		{netlist.Or, []Val{V0, V0}, V0},
		{netlist.Nor, []Val{V0, V0}, V1},
		{netlist.Nor, []Val{VX, V0}, VX},
		{netlist.Xor, []Val{V1, V1}, V0},
		{netlist.Xnor, []Val{V1, V0}, V0},
		{netlist.Xnor, []Val{V1, V1}, V1},
		{netlist.Const0, nil, V0},
		{netlist.Const1, nil, V1},
		{netlist.DFF, []Val{VX}, VX},
		{netlist.Output, []Val{V1}, V1},
	}
	for _, c := range cases {
		if got := EvalGate(c.t, c.in); got != c.want {
			t.Errorf("EvalGate(%v, %v) = %v, want %v", c.t, c.in, got, c.want)
		}
	}
}

// TestEvalGatePConsistent cross-checks the parallel evaluator against
// the scalar one for every gate type over all 2-input combinations.
func TestEvalGatePConsistent(t *testing.T) {
	types := []netlist.GateType{
		netlist.And, netlist.Or, netlist.Nand, netlist.Nor, netlist.Xor, netlist.Xnor,
	}
	vals := []Val{V0, V1, VX}
	for _, gt := range types {
		for _, a := range vals {
			for _, b := range vals {
				want := EvalGate(gt, []Val{a, b})
				var pa, pb PVal
				pa.Set(5, a)
				pb.Set(5, b)
				got := get(EvalGateP(gt, []PVal{pa, pb}), 5)
				if got != want {
					t.Errorf("%v(%v,%v): parallel %v, scalar %v", gt, a, b, got, want)
				}
			}
		}
	}
}
