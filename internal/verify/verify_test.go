package verify

import (
	"testing"

	"seqatpg/internal/encode"
	"seqatpg/internal/fsm"
	"seqatpg/internal/netlist"
	"seqatpg/internal/retime"
	"seqatpg/internal/sim"
	"seqatpg/internal/synth"
)

func synthC(t *testing.T, states int, seed int64, alg encode.Algorithm, script synth.Script) *netlist.Circuit {
	t.Helper()
	m, err := fsm.Generate(fsm.GenSpec{Name: "vf", Inputs: 4, Outputs: 3, States: states, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	r, err := synth.Synthesize(m, synth.Options{
		Algorithm: alg, Script: script, UseUnreachableDC: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r.Circuit
}

func TestSelfEquivalence(t *testing.T) {
	c := synthC(t, 9, 7, encode.Combined, synth.Rugged)
	ok, ce, err := Equivalent(c, c, Options{FlushCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("circuit not equivalent to itself: %v", ce)
	}
}

// TestSynthesisVariantsEquivalent: the same FSM synthesized under
// different scripts implements the same I/O behaviour.
func TestSynthesisVariantsEquivalent(t *testing.T) {
	a := synthC(t, 9, 7, encode.Combined, synth.Rugged)
	b := synthC(t, 9, 7, encode.Combined, synth.Delay)
	ok, ce, err := Equivalent(a, b, Options{FlushCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("rugged and delay variants differ: %v", ce)
	}
	// Even under different state assignments.
	c := synthC(t, 9, 7, encode.InputDominant, synth.Rugged)
	ok, ce, err = Equivalent(a, c, Options{FlushCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("ji and jc encodings differ: %v", ce)
	}
}

// TestRetimingEquivalence is Theorem 1's behavioural core, proven
// symbolically rather than by simulation: the retimed circuit is
// equivalent to the original once both are flushed.
func TestRetimingEquivalence(t *testing.T) {
	lib := netlist.DefaultLibrary()
	for _, rounds := range []int{1, 2} {
		c := synthC(t, 9, 21, encode.Combined, synth.Rugged)
		re, err := retime.Backward(c, lib, rounds)
		if err != nil {
			t.Fatal(err)
		}
		ok, ce, err := Equivalent(c, re.Circuit, Options{FlushCycles: re.FlushCycles})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("rounds=%d: retimed circuit not equivalent: %v", rounds, ce)
		}
	}
}

// TestDetectsInjectedBug: a deliberately corrupted copy must be caught
// with a counterexample that actually demonstrates the difference.
func TestDetectsInjectedBug(t *testing.T) {
	a := synthC(t, 9, 7, encode.Combined, synth.Rugged)
	b := a.Clone()
	// Corrupt one output driver: route PO 0 through an inverter.
	po := b.POs[0]
	drv := b.Gates[po].Fanin[0]
	inv := b.AddGate(netlist.Not, "bug", drv)
	b.Gates[po].Fanin[0] = inv
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	ok, ce, err := Equivalent(a, b, Options{FlushCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("injected bug not detected")
	}
	if ce == nil || ce.Output != 0 {
		t.Fatalf("counterexample should blame output 0: %v", ce)
	}
	replayCounterexample(t, a, b, ce)
}

// replayCounterexample loads the counterexample's product state into
// scalar simulators of a and b and applies its inputs: the blamed
// output must differ. A wrong state or input variable mapping in the
// symbolic builder shows up here even when the verdict is right.
func replayCounterexample(t *testing.T, a, b *netlist.Circuit, ce *Counterexample) {
	t.Helper()
	if ce == nil {
		t.Fatal("no counterexample")
	}
	vals := func(bits []bool) []sim.Val {
		out := make([]sim.Val, len(bits))
		for i, v := range bits {
			if v {
				out[i] = sim.V1
			}
		}
		return out
	}
	outs := make([][]sim.Val, 2)
	for k, cc := range []struct {
		c     *netlist.Circuit
		state []bool
	}{{a, ce.StateA}, {b, ce.StateB}} {
		s, err := sim.NewSimulator(cc.c)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetState(vals(cc.state)); err != nil {
			t.Fatal(err)
		}
		if outs[k], err = s.Eval(vals(ce.Inputs)); err != nil {
			t.Fatal(err)
		}
	}
	if outs[0][ce.Output] == outs[1][ce.Output] {
		t.Fatalf("counterexample does not replay: output %d is %v on both machines (%v)",
			ce.Output, outs[0][ce.Output], ce)
	}
}

// TestDetectsSubtleStateBug: corrupting next-state logic (not outputs
// directly) must also be caught via the product traversal.
func TestDetectsSubtleStateBug(t *testing.T) {
	a := synthC(t, 9, 7, encode.Combined, synth.Rugged)
	b := a.Clone()
	ff := b.DFFs[0]
	drv := b.Gates[ff].Fanin[0]
	inv := b.AddGate(netlist.Not, "bug", drv)
	b.Gates[ff].Fanin[0] = inv
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	ok, ce, err := Equivalent(a, b, Options{FlushCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("state-logic bug not detected")
	}
	replayCounterexample(t, a, b, ce)
}

// TestCounterexampleReplaysOnRetimedPair: a bug in a retimed copy,
// which has more DFFs than the original, yields counterexamples whose
// A and B state slices have different widths; each must replay on the
// simulator.
func TestCounterexampleReplaysOnRetimedPair(t *testing.T) {
	a := synthC(t, 9, 21, encode.Combined, synth.Rugged)
	re, err := retime.Backward(a, netlist.DefaultLibrary(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Circuit.DFFs) <= len(a.DFFs) {
		t.Fatalf("retiming kept %d DFFs, want more than %d", len(re.Circuit.DFFs), len(a.DFFs))
	}
	for k := 0; k < len(re.Circuit.DFFs); k += 3 {
		b := re.Circuit.Clone()
		ff := b.DFFs[k]
		b.Gates[ff].Fanin[0] = b.AddGate(netlist.Not, "bug", b.Gates[ff].Fanin[0])
		ok, ce, err := Equivalent(a, b, Options{FlushCycles: re.FlushCycles})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("bug at DFF %d of the retimed copy not detected", k)
		}
		replayCounterexample(t, a, b, ce)
	}
}

func TestInterfaceMismatchRejected(t *testing.T) {
	a := synthC(t, 9, 7, encode.Combined, synth.Rugged)
	b := netlist.New("other")
	in := b.AddGate(netlist.Input, "in")
	b.ResetPI = in
	b.AddGate(netlist.Output, "o", in)
	if _, _, err := Equivalent(a, b, Options{}); err == nil {
		t.Error("interface mismatch must error")
	}
}
