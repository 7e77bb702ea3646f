package atpg

import (
	"fmt"
	"testing"

	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// chain builds: in -> AND(in, reset') -> DFF -> NOT -> out, with reset.
func chain(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("chain")
	reset := c.AddGate(netlist.Input, "reset")
	c.ResetPI = reset
	in := c.AddGate(netlist.Input, "in")
	nr := c.AddGate(netlist.Not, "nr", reset)
	a := c.AddGate(netlist.And, "a", in, nr)
	ff := c.AddGate(netlist.DFF, "q", a)
	n := c.AddGate(netlist.Not, "n", ff)
	c.AddGate(netlist.Output, "o", n)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestV5Algebra(t *testing.T) {
	d := V5{sim.V1, sim.V0}
	db := V5{sim.V0, sim.V1}
	if !d.isD() || !db.isD() {
		t.Error("D and D-bar must be fault effects")
	}
	if vx().isD() || vBoth(sim.V1).isD() {
		t.Error("X and clean values are not fault effects")
	}
	if !vBoth(sim.V0).equalBoth() || d.equalBoth() {
		t.Error("equalBoth wrong")
	}
	// AND of D with 1 keeps D; with 0 kills it.
	out := evalGate5(netlist.And, []V5{d, vBoth(sim.V1)})
	if !out.isD() {
		t.Error("AND(D,1) must stay D")
	}
	out = evalGate5(netlist.And, []V5{d, vBoth(sim.V0)})
	if !out.equalBoth() || out.G != sim.V0 {
		t.Error("AND(D,0) must be 0")
	}
	// NOT(D) = D-bar.
	out = evalGate5(netlist.Not, []V5{d})
	if out.G != sim.V0 || out.F != sim.V1 {
		t.Error("NOT(D) must be D-bar")
	}
}

func TestWindowStemInjectionAndPropagation(t *testing.T) {
	c := chain(t)
	// Stuck-at-0 on the AND output (gate 3).
	f := &fault.Fault{Gate: 3, Pin: -1, SA: sim.V0}
	w := newWindow(soaOf(t, c), 2, f)
	// Frame 0: reset=0, in=1 -> AND good value 1, faulty 0 => D at D-line;
	// frame 1: the DFF carries the D, the NOT makes D-bar at the PO.
	w.piVals[0][0] = sim.V0 // reset
	w.piVals[0][1] = sim.V1 // in
	w.piVals[1][0] = sim.V0
	w.piVals[1][1] = sim.V0
	w.simulate()
	if got := w.faultLineGood(); got != sim.V1 {
		t.Fatalf("fault line good value = %v, want 1", got)
	}
	if !w.detectedAtPO() {
		t.Fatal("fault effect should reach the PO in frame 1")
	}
	if !w.val(1, int(w.s.Pos[6])).isD() { // the Output gate
		t.Error("PO value should be a fault effect")
	}
}

func TestWindowBranchInjection(t *testing.T) {
	c := chain(t)
	// Branch fault: AND's pin 0 (the in branch) stuck at 0.
	f := &fault.Fault{Gate: 3, Pin: 0, SA: sim.V0}
	w := newWindow(soaOf(t, c), 1, f)
	w.piVals[0][0] = sim.V0
	w.piVals[0][1] = sim.V1
	w.stateVals[0] = sim.V0
	w.simulate()
	// The AND output itself becomes D (good 1, faulty 0).
	if !w.val(0, int(w.s.Pos[3])).isD() {
		t.Error("branch fault must develop at the gate output")
	}
	// But the source gate (the input) is unaffected.
	if w.val(0, int(w.s.Pos[1])).isD() {
		t.Error("branch fault must not corrupt the stem")
	}
}

func TestWindowIncrementalCharge(t *testing.T) {
	c := chain(t)
	order, _ := c.TopoOrder()
	f := &fault.Fault{Gate: 3, Pin: -1, SA: sim.V0}
	w := newWindow(soaOf(t, c), 4, f)
	w.fallbackEvals = -1 // pure event-driven, no sweep fallback
	// A fresh window costs one full sweep: k x gates.
	if evals := w.simulate(); evals != 4*len(order) {
		t.Errorf("fresh window charged %d evals, want %d", evals, 4*len(order))
	}
	// No changes: nothing to re-evaluate.
	if evals := w.simulate(); evals != 0 {
		t.Errorf("no-op simulate charged %d evals, want 0", evals)
	}
	// One frame-0 PI change re-evaluates only its fanout cone, which is
	// strictly smaller than a full sweep — and at least the seed gate.
	w.setPI(0, 1, sim.V1)
	evals := w.simulate()
	if evals == 0 || evals >= 4*len(order) {
		t.Errorf("single-PI change charged %d evals, want within (0, %d)", evals, 4*len(order))
	}
	// Retracting it costs the same cone again.
	w.setPI(0, 1, sim.VX)
	if back := w.simulate(); back != evals {
		t.Errorf("retraction charged %d evals, assignment charged %d", back, evals)
	}
	// Assigning the same value twice is free.
	w.setPI(0, 1, sim.VX)
	if evals := w.simulate(); evals != 0 {
		t.Errorf("redundant assignment charged %d evals, want 0", evals)
	}
}

func TestWindowInvalidateForcesFullSweep(t *testing.T) {
	c := chain(t)
	order, _ := c.TopoOrder()
	f := &fault.Fault{Gate: 3, Pin: -1, SA: sim.V0}
	w := newWindow(soaOf(t, c), 2, f)
	w.simulate()
	// Bulk-write inputs behind the event system's back, then invalidate.
	w.piVals[0][0] = sim.V0
	w.piVals[0][1] = sim.V1
	w.invalidate()
	if evals := w.simulate(); evals != 2*len(order) {
		t.Errorf("invalidated window charged %d evals, want %d", evals, 2*len(order))
	}
	if got := w.faultLineGood(); got != sim.V1 {
		t.Errorf("fault line good value = %v, want 1 after invalidate+simulate", got)
	}
}

func TestDFrontierTracksBlockedEffect(t *testing.T) {
	// in2 gates the propagation: AND(D-carrier, in2).
	c := netlist.New("frontier")
	reset := c.AddGate(netlist.Input, "reset")
	c.ResetPI = reset
	in := c.AddGate(netlist.Input, "in")
	in2 := c.AddGate(netlist.Input, "in2")
	b := c.AddGate(netlist.Buf, "b", in)
	a := c.AddGate(netlist.And, "a", b, in2)
	c.AddGate(netlist.Output, "o", a)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	f := &fault.Fault{Gate: b, Pin: -1, SA: sim.V0}
	w := newWindow(soaOf(t, c), 1, f)
	w.setPI(0, 1, sim.V1) // excite: buf good 1, faulty 0
	w.simulate()
	if len(w.dFrontier()) != 1 {
		t.Fatalf("frontier = %v, want the blocked AND", w.dFrontier())
	}
	if w.detectedAtPO() {
		t.Fatal("effect must be blocked while in2 is X")
	}
	// Open the gate.
	w.setPI(0, 2, sim.V1)
	w.simulate()
	if !w.detectedAtPO() {
		t.Error("effect should propagate once in2=1")
	}
	// Close the gate: effect killed, frontier empty.
	w.setPI(0, 2, sim.V0)
	w.simulate()
	if w.detectedAtPO() || len(w.dFrontier()) != 0 {
		t.Error("in2=0 must kill the effect")
	}
}

func TestSCOAPBasics(t *testing.T) {
	c := chain(t)
	s := computeSCOAP(c)
	// An input is maximally controllable.
	if s.cost(1, true) != 1 || s.cost(1, false) != 1 {
		t.Error("PI controllability must be 1")
	}
	// Logic behind a DFF is harder than in front of it.
	if s.cost(5, false) <= s.cost(3, false) {
		t.Errorf("NOT behind DFF (cc0=%d) should cost more than AND (cc0=%d)",
			s.cost(5, false), s.cost(3, false))
	}
	// Constants: only one value achievable.
	c2 := netlist.New("const")
	c2.AddGate(netlist.Input, "in")
	z := c2.AddGate(netlist.Const0, "z")
	s2 := computeSCOAP(c2)
	if s2.cost(z, false) != 0 {
		t.Error("Const0 is free to set to 0")
	}
	if s2.cost(z, true) < CCCap {
		t.Error("Const0 can never be 1")
	}
}

func TestBacktraceReachesInput(t *testing.T) {
	c := chain(t)
	e, err := New(c, Config{MaxFrames: 2, FaultBudget: 1_000_000, FlushCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := newWindow(soaOf(t, c), 2, nil)
	w.simulate()
	// Justify the NOT's output (gate 5) to 0 in frame 1: the NOT reads
	// the DFF, crossing into frame 0's AND, whose inputs are PIs.
	pin, v, ok := e.backtrace(w, objective{frame: 1, pos: int(w.s.Pos[5]), val: sim.V0})
	if !ok {
		t.Fatal("backtrace failed")
	}
	// The request walks NOT(0->1) -> DFF(frame 0) -> AND wants 1 -> both
	// fanins must be 1, so a PI or the reset inverter's input.
	if pin.isState {
		t.Errorf("two-frame window must not stop at the state: %+v", pin)
	}
	_ = v
}

func TestBacktraceStopsAtConstant(t *testing.T) {
	c := netlist.New("k")
	reset := c.AddGate(netlist.Input, "reset")
	c.ResetPI = reset
	one := c.AddGate(netlist.Const1, "one")
	n := c.AddGate(netlist.Not, "n", one)
	c.AddGate(netlist.Output, "o", n)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := New(c, Config{MaxFrames: 1, FaultBudget: 1_000, FlushCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := newWindow(soaOf(t, c), 1, nil)
	w.simulate()
	if _, _, ok := e.backtrace(w, objective{frame: 0, pos: int(w.s.Pos[n]), val: sim.V0}); ok {
		t.Error("backtrace through a constant must fail")
	}
}

// TestWindowFallbackCharge pins the 3/4 fallback charge: a frame-0 PI
// toggle on a 12-inverter chain cascades through every gate of the
// frame, so the event drain stops after 3/4 of the gates and finishes
// the frame with one sweep. The charge is exactly the evaluations
// before the cut plus one full frame, and the values equal a fresh
// full sweep.
func TestWindowFallbackCharge(t *testing.T) {
	c := netlist.New("cascade")
	c.ResetPI = c.AddGate(netlist.Input, "reset")
	prev := c.AddGate(netlist.Input, "in")
	for i := 0; i < 12; i++ {
		prev = c.AddGate(netlist.Not, fmt.Sprintf("n%d", i), prev)
	}
	c.AddGate(netlist.Output, "o", prev)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	order, _ := c.TopoOrder()
	f := &fault.Fault{Gate: prev, Pin: -1, SA: sim.V0}
	w := newWindow(soaOf(t, c), 1, f)
	w.simulate()
	w.setPI(0, 1, sim.V1)
	evals := w.simulate()
	cut := 3 * len(order) / 4
	if evals != cut+len(order) || evals != 26 {
		t.Fatalf("cascade charged %d, want %d before the cut + %d for the sweep = 26", evals, cut, len(order))
	}
	ref := newWindow(soaOf(t, c), 1, f)
	ref.setPI(0, 1, sim.V1)
	ref.simulate()
	checkWindowsEqual(t, "fallback", w, ref)
}

// soaOf builds the circuit view windows run on.
func soaOf(t testing.TB, c *netlist.Circuit) *netlist.SoA {
	t.Helper()
	s, err := netlist.NewSoA(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
