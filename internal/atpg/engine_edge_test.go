package atpg

import (
	"fmt"
	"testing"

	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

func TestRunFaultsEmptyList(t *testing.T) {
	c := synthC(t, 7, 5)
	e, err := New(c, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunFaults(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total != 0 || len(res.Tests) != 0 {
		t.Errorf("empty run produced %+v", res.Stats)
	}
	if res.Stats.FC() != 0 || res.Stats.FE() != 0 {
		t.Error("empty run coverage must be 0 (not NaN)")
	}
}

func TestFaultyFlushStateDiverges(t *testing.T) {
	// A stuck-at fault on the reset path makes the faulty machine flush
	// differently; the composite post-flush state must expose that.
	c := chain(t)
	e, err := New(c, Config{MaxFrames: 8, FaultBudget: 1_000_000, FlushCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	// nr = NOT(reset) is gate 2; nr stuck-at-1 defeats the reset gating.
	f := &fault.Fault{Gate: 2, Pin: -1, SA: sim.V1}
	st := e.faultyFlushState(f)
	if len(st) != 1 {
		t.Fatalf("state width %d", len(st))
	}
	// Good rail: reset=1 forces AND=0 -> state 0. Faulty rail: nr=1,
	// in=0 during flush -> AND(in=0, 1) = 0 too; both known.
	if st[0].G != sim.V0 {
		t.Errorf("good rail = %v, want 0", st[0].G)
	}
	// A fault NOT in the reset path leaves the rails in agreement.
	f2 := &fault.Fault{Gate: 5, Pin: -1, SA: sim.V1} // the output NOT
	st2 := e.faultyFlushState(f2)
	if st2[0].G != st2[0].F {
		t.Errorf("unrelated fault diverged the flush state: %+v", st2[0])
	}
}

func TestUnpackState(t *testing.T) {
	vals := unpackState(0b101, 3)
	want := []sim.Val{sim.V1, sim.V0, sim.V1}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("bit %d = %v, want %v", i, vals[i], want[i])
		}
	}
}

func TestCompatible5(t *testing.T) {
	cube := []sim.Val{sim.V1, sim.VX}
	agree := []V5{{sim.V1, sim.V1}, {sim.V0, sim.V1}}
	if !compatible5(cube, agree) {
		t.Error("matching composite state rejected")
	}
	diverged := []V5{{sim.V1, sim.V0}, {sim.V0, sim.V0}}
	if compatible5(cube, diverged) {
		t.Error("diverged rail must not satisfy the cube")
	}
}

// TestRedundancyPrePassExtendedObs: a fault observable ONLY through the
// next-state lines must not be called redundant (the k=1 pre-pass sees
// state lines as observation points).
func TestRedundancyPrePassExtendedObs(t *testing.T) {
	// in -> AND(in, reset') -> DFF -> out. A fault on the AND is
	// observable only via the DFF (one frame later).
	c := netlist.New("obs")
	reset := c.AddGate(netlist.Input, "reset")
	c.ResetPI = reset
	in := c.AddGate(netlist.Input, "in")
	nr := c.AddGate(netlist.Not, "nr", reset)
	a := c.AddGate(netlist.And, "a", in, nr)
	ff := c.AddGate(netlist.DFF, "q", a)
	c.AddGate(netlist.Output, "o", ff)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := New(c, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunFaults([]fault.Fault{{Gate: a, Pin: -1, SA: sim.V0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Redundant != 0 {
		t.Error("state-observable fault misclassified as redundant")
	}
	if res.Stats.Detected != 1 {
		t.Errorf("fault should be detected across two frames: %+v", res.Stats)
	}
}

func TestStatsPercentages(t *testing.T) {
	s := Stats{Total: 200, Detected: 150, Redundant: 30}
	if s.FC() != 75 {
		t.Errorf("FC = %v", s.FC())
	}
	if s.FE() != 90 {
		t.Errorf("FE = %v", s.FE())
	}
}

func TestOutcomesParallelToFaults(t *testing.T) {
	c := synthC(t, 7, 5)
	e, err := New(c, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)[:30]
	res, err := e.RunFaults(faults)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(faults) {
		t.Fatalf("outcomes length %d, want %d", len(res.Outcomes), len(faults))
	}
	counts := map[Outcome]int{}
	for _, o := range res.Outcomes {
		counts[o]++
	}
	if counts[Detected] != res.Stats.Detected ||
		counts[Redundant] != res.Stats.Redundant ||
		counts[Aborted] != res.Stats.Aborted {
		t.Errorf("outcome counts %v disagree with stats %+v", counts, res.Stats)
	}
}

func TestOutcomeString(t *testing.T) {
	if Detected.String() != "detected" || Redundant.String() != "redundant" || Aborted.String() != "aborted" {
		t.Error("Outcome strings wrong")
	}
}

func TestLearningStatsRecorded(t *testing.T) {
	c := synthC(t, 9, 12)
	cfg := defaultCfg()
	cfg.Learning = true
	e, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LearnHits == 0 && res.Stats.LearnPrunes == 0 {
		t.Log("no learning activity on this circuit (acceptable but unusual)")
	}
}

// TestLearningSkipsWideStates: past sim.MaxStateBits DFFs a fully
// specified state does not fit the packed key of the achieved-state
// store, so state-keyed reuse must be skipped instead of aliasing states
// that differ only beyond bit 63. The circuit loads one signal into
// every DFF, so all-ones is reachable and all-ones-but-the-last is not.
// The target fault sits on an output, off every state-loading path.
func TestLearningSkipsWideStates(t *testing.T) {
	n := sim.MaxStateBits + 1
	c := netlist.New("wide")
	reset := c.AddGate(netlist.Input, "reset")
	c.ResetPI = reset
	in := c.AddGate(netlist.Input, "in")
	nr := c.AddGate(netlist.Not, "nr", reset)
	a := c.AddGate(netlist.And, "a", in, nr)
	var out int
	for i := 0; i < n; i++ {
		q := c.AddGate(netlist.DFF, fmt.Sprintf("q%d", i), a)
		out = c.AddGate(netlist.Output, fmt.Sprintf("o%d", i), q)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := New(c, Config{MaxFrames: 2, FaultBudget: 1_000_000, Learning: true})
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]sim.Val, n)
	for i := range ones {
		ones[i] = sim.V1
	}
	if _, full := fullySpecified(ones); full {
		t.Errorf("a %d-bit state was packed into a uint64 key", n)
	}
	e.remaining = e.cfg.FaultBudget // as the run loop arms it per fault
	f := &fault.Fault{Gate: out, Pin: -1, SA: sim.V0}
	reset0 := e.faultyFlushState(f)
	if _, ok := e.justify(f, reset0, ones, 2, map[string]bool{}); !ok {
		t.Fatal("the all-ones state must be justifiable")
	}
	mixed := append([]sim.Val(nil), ones...)
	mixed[n-1] = sim.V0
	if seq, ok := e.justify(f, reset0, mixed, 2, map[string]bool{}); ok {
		t.Fatalf("justified an unreachable state with %v (learn hits %d)", seq, e.Stats.LearnHits)
	}
}
