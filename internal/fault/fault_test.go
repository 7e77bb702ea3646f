package fault

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"seqatpg/internal/encode"
	"seqatpg/internal/fsm"
	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
	"seqatpg/internal/synth"
)

// combXor builds out = a XOR b (no state).
func combXor(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("xor2")
	a := c.AddGate(netlist.Input, "a")
	b := c.AddGate(netlist.Input, "b")
	x := c.AddGate(netlist.Xor, "x", a, b)
	c.AddGate(netlist.Output, "o", x)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFullUniverseCounts(t *testing.T) {
	c := combXor(t)
	faults := FullUniverse(c)
	// Stems: a, b, x (output gate has none) = 3 gates * 2.
	// Branches: xor has 2 pins, output 1 pin = 3 * 2.
	if len(faults) != 12 {
		t.Errorf("universe = %d faults, want 12", len(faults))
	}
}

func TestCollapseReduces(t *testing.T) {
	c := combXor(t)
	faults := CollapsedUniverse(c)
	full := FullUniverse(c)
	if len(faults) >= len(full) {
		t.Errorf("collapse did not reduce: %d vs %d", len(faults), len(full))
	}
	// XOR gate: no input-output equivalences, but single-fanout stems
	// merge a->xor.pin0, b->xor.pin1, x->output.pin0: 6 classes gone.
	if len(faults) != 6 {
		t.Errorf("collapsed = %d faults, want 6", len(faults))
	}
}

func TestDetectsExhaustiveXor(t *testing.T) {
	c := combXor(t)
	faults := CollapsedUniverse(c)
	seq := [][]sim.Val{
		{sim.V0, sim.V0},
		{sim.V0, sim.V1},
		{sim.V1, sim.V0},
		{sim.V1, sim.V1},
	}
	fs, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	det, err := fs.Detects(seq, faults)
	if err != nil {
		t.Fatal(err)
	}
	cov := Summarize(det)
	if cov.Detected != cov.Total {
		t.Errorf("exhaustive test set detected %d/%d on an irredundant XOR", cov.Detected, cov.Total)
	}
	if cov.FC() != 100 {
		t.Errorf("FC = %.1f, want 100", cov.FC())
	}
}

func TestNoVectorsNoDetection(t *testing.T) {
	c := combXor(t)
	fs, _ := NewSimulator(c)
	det, err := fs.Detects(nil, CollapsedUniverse(c))
	if err != nil {
		t.Fatal(err)
	}
	if Summarize(det).Detected != 0 {
		t.Error("empty sequence must detect nothing")
	}
}

// serialDetects re-simulates each fault one at a time with a scalar
// simulator by structurally editing the circuit, as an oracle for the
// parallel simulator.
func serialDetects(t *testing.T, c *netlist.Circuit, seq [][]sim.Val, f Fault) bool {
	t.Helper()
	faulty := c.Clone()
	// Realize the fault structurally: a stem fault replaces the gate's
	// readers' view by a constant; a branch fault rewires one pin.
	constID := faulty.AddGate(netlist.Const0, "sa")
	if f.SA == sim.V1 {
		faulty.Gates[constID].Type = netlist.Const1
	}
	if f.Pin < 0 {
		for id := range faulty.Gates {
			if id == constID {
				continue
			}
			for pin, fi := range faulty.Gates[id].Fanin {
				if fi == f.Gate {
					faulty.Gates[id].Fanin[pin] = constID
				}
			}
		}
	} else {
		faulty.Gates[f.Gate].Fanin[f.Pin] = constID
	}
	good, err := sim.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := sim.NewSimulator(faulty)
	if err != nil {
		t.Fatal(err)
	}
	for _, vec := range seq {
		og, err := good.Step(vec)
		if err != nil {
			t.Fatal(err)
		}
		ob, err := bad.Step(vec)
		if err != nil {
			t.Fatal(err)
		}
		for k := range og {
			if og[k] != sim.VX && ob[k] != sim.VX && og[k] != ob[k] {
				return true
			}
		}
	}
	return false
}

// TestParallelMatchesSerial cross-checks the bit-parallel simulator
// against one-at-a-time structural fault injection on a synthesized
// sequential circuit.
func TestParallelMatchesSerial(t *testing.T) {
	m, err := fsm.Generate(fsm.GenSpec{Name: "fs", Inputs: 3, Outputs: 2, States: 7, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r, err := synth.Synthesize(m, synth.Options{
		Algorithm: encode.Combined, Script: synth.Delay, UseUnreachableDC: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := r.Circuit
	faults := CollapsedUniverse(c)
	rng := rand.New(rand.NewSource(3))
	seq := make([][]sim.Val, 0, 12)
	reset := make([]sim.Val, len(c.PIs))
	reset[0] = sim.V1
	seq = append(seq, reset)
	for k := 0; k < 11; k++ {
		vec := make([]sim.Val, len(c.PIs))
		for i := 1; i < len(vec); i++ {
			vec[i] = sim.Val(rng.Intn(2))
		}
		seq = append(seq, vec)
	}
	fs, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	det, err := fs.Detects(seq, faults)
	if err != nil {
		t.Fatal(err)
	}
	// Check a sample (serial simulation is slow).
	step := len(faults)/60 + 1
	for i := 0; i < len(faults); i += step {
		want := serialDetects(t, c, seq, faults[i])
		if det[i] != want {
			t.Errorf("fault %v: parallel=%v serial=%v", faults[i], det[i], want)
		}
	}
}

func TestStateTrace(t *testing.T) {
	m, err := fsm.Generate(fsm.GenSpec{Name: "st", Inputs: 3, Outputs: 2, States: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := synth.Synthesize(m, synth.Options{
		Algorithm: encode.Combined, Script: synth.Rugged, UseUnreachableDC: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := r.Circuit
	rng := rand.New(rand.NewSource(8))
	seq := [][]sim.Val{}
	reset := make([]sim.Val, len(c.PIs))
	reset[0] = sim.V1
	seq = append(seq, reset)
	for k := 0; k < 30; k++ {
		vec := make([]sim.Val, len(c.PIs))
		for i := 1; i < len(vec); i++ {
			vec[i] = sim.Val(rng.Intn(2))
		}
		seq = append(seq, vec)
	}
	states, err := StateTrace(c, seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 {
		t.Fatal("no states traversed")
	}
	// Every traversed state must be the code of some FSM state.
	valid := map[uint64]bool{}
	for _, code := range r.Encoding.Code {
		valid[code] = true
	}
	for st := range states {
		if !valid[st] {
			t.Errorf("traversed invalid state %b", st)
		}
	}
}

func TestVectorWidthError(t *testing.T) {
	c := combXor(t)
	fs, _ := NewSimulator(c)
	_, err := fs.Detects([][]sim.Val{{sim.V0}}, CollapsedUniverse(c))
	if err == nil {
		t.Error("wrong vector width must error")
	}
}

// shiftChain builds an n-stage shift register: in -> q0 -> ... -> out.
func shiftChain(t *testing.T, n int) *netlist.Circuit {
	t.Helper()
	c := netlist.New("chain")
	prev := c.AddGate(netlist.Input, "in")
	for i := 0; i < n; i++ {
		prev = c.AddGate(netlist.DFF, "", prev)
	}
	c.AddGate(netlist.Output, "out", prev)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStateTraceRejectsWideState: shifting a single one through an
// n-stage chain visits n+1 distinct states (all zeros, then the one at
// each stage). At 64 stages every state is counted; at 65 the state
// with the one in DFF 64 does not fit a uint64 and would alias the
// all-zero state, so StateTrace must refuse the circuit instead.
func TestStateTraceRejectsWideState(t *testing.T) {
	for _, n := range []int{64, 65} {
		c := shiftChain(t, n)
		var seq [][]sim.Val
		for k := 0; k < 2*n; k++ {
			v := sim.V0
			if k == n {
				v = sim.V1
			}
			seq = append(seq, []sim.Val{v})
		}
		states, err := StateTrace(c, seq)
		if n <= sim.MaxStateBits {
			if err != nil {
				t.Fatalf("%d stages: %v", n, err)
			}
			if len(states) != n+1 {
				t.Fatalf("%d stages: %d states traversed, want %d", n, len(states), n+1)
			}
		} else if !errors.Is(err, ErrStateTooWide) {
			t.Fatalf("%d stages: err %v, want ErrStateTooWide (%d states counted)", n, err, len(states))
		}
		// TraceStates on one simulator reused across traces agrees with
		// StateTrace every time: each trace starts from power-up.
		s, serr := sim.NewSimulator(c)
		if serr != nil {
			t.Fatal(serr)
		}
		for pass := 0; pass < 2; pass++ {
			got := map[uint64]bool{}
			terr := TraceStates(s, seq, got)
			if (terr == nil) != (err == nil) || (err != nil && !errors.Is(terr, ErrStateTooWide)) {
				t.Fatalf("%d stages pass %d: TraceStates err %v, StateTrace err %v", n, pass, terr, err)
			}
			if err == nil && !reflect.DeepEqual(got, states) {
				t.Fatalf("%d stages pass %d: TraceStates found %d states, StateTrace %d", n, pass, len(got), len(states))
			}
			if err != nil && len(got) != 0 {
				t.Fatalf("%d stages pass %d: refused trace still added %d states", n, pass, len(got))
			}
		}
	}
}
