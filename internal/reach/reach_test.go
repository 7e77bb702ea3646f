package reach

import (
	"fmt"
	"strings"
	"testing"

	"seqatpg/internal/encode"
	"seqatpg/internal/fsm"
	"seqatpg/internal/netlist"
	"seqatpg/internal/retime"
	"seqatpg/internal/sim"
	"seqatpg/internal/synth"
)

func synthM(t *testing.T, states int, seed int64) (*fsm.FSM, *synth.Result) {
	t.Helper()
	m, err := fsm.Generate(fsm.GenSpec{Name: "rc", Inputs: 4, Outputs: 3, States: states, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	r, err := synth.Synthesize(m, synth.Options{
		Algorithm: encode.Combined, Script: synth.Rugged, UseUnreachableDC: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, r
}

// TestValidStatesMatchFSM: for an original circuit, the valid-state set
// must be exactly the codes of the FSM's reachable states.
func TestValidStatesMatchFSM(t *testing.T) {
	for _, states := range []int{5, 11, 14} {
		m, r := synthM(t, states, int64(states)*7)
		a, err := Analyze(r.Circuit, Options{FlushCycles: 1})
		if err != nil {
			t.Fatal(err)
		}
		if int(a.ValidStates) != m.NumStates() {
			t.Errorf("states=%d: valid = %v, want %d", states, a.ValidStates, m.NumStates())
		}
		want := 1 << uint(r.Encoding.Bits)
		if int(a.TotalStates) != want {
			t.Errorf("states=%d: total = %v, want %d", states, a.TotalStates, want)
		}
		for s := 0; s < m.NumStates(); s++ {
			if !a.Contains(r.Encoding.Code[s]) {
				t.Errorf("state %s code %b not in valid set", m.States[s], r.Encoding.Code[s])
			}
		}
		// A code not assigned to any state must be invalid.
		used := map[uint64]bool{}
		for _, code := range r.Encoding.Code {
			used[code] = true
		}
		for code := uint64(0); code < uint64(a.TotalStates); code++ {
			if !used[code] && a.Contains(code) {
				t.Errorf("unused code %b reported valid", code)
			}
		}
	}
}

// TestDensityDropsUnderRetiming is the core Table 6 effect: retiming
// multiplies total states much faster than valid states.
func TestDensityDropsUnderRetiming(t *testing.T) {
	lib := netlist.DefaultLibrary()
	_, r := synthM(t, 11, 21)
	orig, err := Analyze(r.Circuit, Options{FlushCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := retime.Backward(r.Circuit, lib, 2)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Analyze(res.Circuit, Options{FlushCycles: res.FlushCycles})
	if err != nil {
		t.Fatal(err)
	}
	if re.Density >= orig.Density {
		t.Errorf("density did not drop: %.3g -> %.3g", orig.Density, re.Density)
	}
	if re.TotalStates <= orig.TotalStates {
		t.Error("total states must grow with added DFFs")
	}
	// Valid states may grow but must stay far below the total.
	if re.ValidStates >= re.TotalStates/2 {
		t.Errorf("retimed valid fraction suspiciously high: %v of %v", re.ValidStates, re.TotalStates)
	}
	t.Logf("density %.3g (valid %v / total %v) -> %.3g (valid %v / total %v)",
		orig.Density, orig.ValidStates, orig.TotalStates,
		re.Density, re.ValidStates, re.TotalStates)
}

func TestNoResetRejected(t *testing.T) {
	c := netlist.New("nr")
	in := c.AddGate(netlist.Input, "in")
	ff := c.AddGate(netlist.DFF, "q", in)
	c.AddGate(netlist.Output, "o", ff)
	if _, err := Analyze(c, Options{}); err == nil {
		t.Error("expected error for circuit without reset line")
	}
}

// TestFlushCyclesDefault: FlushCycles < 1 coerces to 1 and matches an
// explicit 1.
func TestFlushCyclesDefault(t *testing.T) {
	_, r := synthM(t, 7, 3)
	a1, err := Analyze(r.Circuit, Options{FlushCycles: 0})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Analyze(r.Circuit, Options{FlushCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a1.ValidStates != a2.ValidStates {
		t.Errorf("default flush differs: %v vs %v", a1.ValidStates, a2.ValidStates)
	}
}

// TestStateGraphMatchesFSM cross-validates the synthesized circuit
// against the behavioural model: the extracted state graph must equal
// the FSM's STG (codes and successor sets).
func TestStateGraphMatchesFSM(t *testing.T) {
	m, r := synthM(t, 9, 13)
	a, err := Analyze(r.Circuit, Options{FlushCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	states, adj, err := a.StateGraph(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != m.NumStates() {
		t.Fatalf("state graph has %d states, FSM has %d", len(states), m.NumStates())
	}
	// Build the FSM's successor sets in code space. The reset input
	// (always able to force the reset state) adds the reset code to
	// every successor set.
	codeOf := r.Encoding.Code
	resetCode := codeOf[m.Reset]
	for s := 0; s < m.NumStates(); s++ {
		want := map[uint64]bool{resetCode: true}
		for _, i := range m.TransFrom(s) {
			want[codeOf[m.Trans[i].To]] = true
		}
		got := map[uint64]bool{}
		for _, succ := range adj[codeOf[s]] {
			got[succ] = true
		}
		if len(got) != len(want) {
			t.Fatalf("state %s: successor sets differ: got %v want %v", m.States[s], got, want)
		}
		for code := range want {
			if !got[code] {
				t.Fatalf("state %s: missing successor %b", m.States[s], code)
			}
		}
	}
}

func TestStateGraphCap(t *testing.T) {
	_, r := synthM(t, 9, 13)
	a, err := Analyze(r.Circuit, Options{FlushCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.StateGraph(3); err == nil {
		t.Error("cap below the valid-state count must error")
	}
}

// TestStateGraphHonoursNodeBound: StateGraph runs under the node bound
// the analysis ran under. An analysis bounded at exactly the nodes it
// needed has no room left, so enumerating successors must fail with the
// bound's error instead of growing toward the default bound.
func TestStateGraphHonoursNodeBound(t *testing.T) {
	_, r := synthM(t, 9, 13)
	free, err := Analyze(r.Circuit, Options{FlushCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	bound := free.mgr.Size()
	a, err := Analyze(r.Circuit, Options{FlushCycles: 1, MaxNodes: bound})
	if err != nil {
		t.Fatalf("analysis at its own node count must succeed: %v", err)
	}
	if _, _, err := a.StateGraph(64); err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("StateGraph at a spent node bound: err = %v, want the node-bound error", err)
	}
	if a.mgr.Size() > 2*bound {
		t.Errorf("StateGraph grew the manager to %d nodes under a bound of %d", a.mgr.Size(), bound)
	}
}

// ringShifter builds an n-DFF circular shift register whose reset line
// loads a single token into stage 0: its valid states are the n one-hot
// codes.
func ringShifter(n int) *netlist.Circuit {
	c := netlist.New("ring")
	rst := c.AddGate(netlist.Input, "rst")
	c.ResetPI = rst
	nrst := c.AddGate(netlist.Not, "nrst", rst)
	ffs := make([]int, n)
	for i := range ffs {
		ffs[i] = c.AddGate(netlist.DFF, fmt.Sprintf("q%d", i), nrst) // D rewired below
	}
	for i, ff := range ffs {
		d := c.AddGate(netlist.And, fmt.Sprintf("d%d", i), ffs[(i+n-1)%n], nrst)
		if i == 0 {
			d = c.AddGate(netlist.Or, "load", d, rst)
		}
		c.Gates[ff].Fanin[0] = d
	}
	c.AddGate(netlist.Output, "out", ffs[n-1])
	return c
}

// TestStateGraphAndContainsRejectWideCircuits: past sim.MaxStateBits
// DFFs a packed uint64 state would alias distinct states, so StateGraph
// errors and Contains panics rather than answer for the wrong state.
func TestStateGraphAndContainsRejectWideCircuits(t *testing.T) {
	c := ringShifter(sim.MaxStateBits + 1)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(c, Options{FlushCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.ValidStates != float64(a.NumDFFs) {
		t.Errorf("valid states = %v, want the %d one-hot codes", a.ValidStates, a.NumDFFs)
	}
	if _, _, err := a.StateGraph(1 << 20); err == nil || !strings.Contains(err.Error(), "DFFs") {
		t.Errorf("StateGraph on %d DFFs: err = %v, want the width error", a.NumDFFs, err)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Contains on %d DFFs must panic", a.NumDFFs)
		}
	}()
	a.Contains(0)
}
