package netlist

import (
	"slices"
	"testing"
)

// buildToggle returns a 1-input circuit: a DFF whose D input is
// XOR(in, Q) and a PO observing Q — a toggle flip-flop enable.
func buildToggle(t *testing.T) *Circuit {
	t.Helper()
	c := New("toggle")
	in := c.AddGate(Input, "in")
	// DFF fanin patched after the XOR exists (self-loop through logic).
	ff := c.AddGate(DFF, "q", 0)
	x := c.AddGate(Xor, "x", in, ff)
	c.Gates[ff].Fanin[0] = x
	c.AddGate(Output, "out", ff)
	if err := c.Validate(); err != nil {
		t.Fatalf("toggle invalid: %v", err)
	}
	return c
}

func TestAddGateBookkeeping(t *testing.T) {
	c := buildToggle(t)
	if len(c.PIs) != 1 || len(c.POs) != 1 || len(c.DFFs) != 1 {
		t.Errorf("bookkeeping: %d PIs %d POs %d DFFs", len(c.PIs), len(c.POs), len(c.DFFs))
	}
	if c.NumDFFs() != 1 || c.NumGates() != 4 {
		t.Errorf("counts: %d gates %d dffs", c.NumGates(), c.NumDFFs())
	}
}

func TestTopoOrderCutsAtDFF(t *testing.T) {
	c := buildToggle(t)
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("order has %d gates, want 4", len(order))
	}
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	// XOR must come after both its fanins (input and DFF-as-source).
	if pos[2] < pos[0] || pos[2] < pos[1] {
		t.Error("xor ordered before its fanins")
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	c := New("cyc")
	c.AddGate(Input, "in")
	a := c.AddGate(And, "a", 0, 0)
	b := c.AddGate(And, "b", a, 0)
	c.Gates[a].Fanin[1] = b // a <-> b cycle with no DFF
	if _, err := c.TopoOrder(); err == nil {
		t.Error("expected cycle detection")
	}
	if err := c.Validate(); err == nil {
		t.Error("Validate must also reject the cycle")
	}
}

func TestValidateArity(t *testing.T) {
	c := New("bad")
	in := c.AddGate(Input, "in")
	c.AddGate(Not, "n", in, in) // NOT with 2 fanins
	if err := c.Validate(); err == nil {
		t.Error("expected arity violation")
	}

	c2 := New("bad2")
	i2 := c2.AddGate(Input, "in")
	c2.AddGate(And, "a", i2, i2, i2, i2, i2) // fanin 5 > MaxFanin
	if err := c2.Validate(); err == nil {
		t.Error("expected MaxFanin violation")
	}
}

func TestValidateOutputNotReadable(t *testing.T) {
	c := New("bad3")
	in := c.AddGate(Input, "in")
	o := c.AddGate(Output, "o", in)
	c.AddGate(Buf, "b", o)
	if err := c.Validate(); err == nil {
		t.Error("reading from an Output gate must be rejected")
	}
}

func TestFanouts(t *testing.T) {
	c := buildToggle(t)
	f := c.Fanouts()
	// The DFF feeds the XOR and the Output.
	if len(f[1]) != 2 {
		t.Errorf("DFF fanouts = %v", f[1])
	}
	// The XOR feeds only the DFF D input.
	if len(f[2]) != 1 || f[2][0] != 1 {
		t.Errorf("XOR fanouts = %v", f[2])
	}
}

// TestFanoutsAppendIsolated: the entries share one backing array, so
// each must be capacity-capped; an append to one entry must not write
// into the entry after it.
func TestFanoutsAppendIsolated(t *testing.T) {
	c := buildToggle(t)
	f := c.Fanouts()
	want := make([][]int, len(f))
	for id := range f {
		want[id] = slices.Clone(f[id])
	}
	for id := range f {
		f[id] = append(f[id], 99)
		for other := range f {
			if other != id && !slices.Equal(f[other], want[other]) {
				t.Errorf("appending to gate %d's fanouts changed gate %d's: %v, want %v", id, other, f[other], want[other])
			}
		}
		f[id] = f[id][:len(want[id])]
	}
}

func TestLevelsAndStats(t *testing.T) {
	c := buildToggle(t)
	lv, err := c.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if lv[2] != 1 { // XOR one level above sources
		t.Errorf("xor level = %d, want 1", lv[2])
	}
	lib := DefaultLibrary()
	s, err := c.ComputeStats(lib)
	if err != nil {
		t.Fatal(err)
	}
	if s.Gates != 1 || s.DFFs != 1 {
		t.Errorf("stats counts: %+v", s)
	}
	if s.Delay <= 0 || s.Area <= 0 {
		t.Errorf("stats area/delay: %+v", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := buildToggle(t)
	d := c.Clone()
	d.Gates[2].Fanin[0] = 1
	if c.Gates[2].Fanin[0] == 1 {
		t.Error("clone shares fanin storage")
	}
	d.AddGate(Input, "extra")
	if len(c.PIs) != 1 {
		t.Error("clone shares PI list")
	}
}

func TestResetValidation(t *testing.T) {
	c := buildToggle(t)
	c.ResetPI = 2 // XOR, not an input
	if err := c.Validate(); err == nil {
		t.Error("non-input reset must be rejected")
	}
	c.ResetPI = 0
	if err := c.Validate(); err != nil {
		t.Errorf("input reset rejected: %v", err)
	}
}

func TestLibraryLookups(t *testing.T) {
	lib := DefaultLibrary()
	if lib.Area(Nand, 2) >= lib.Area(Nand, 4) {
		t.Error("wider NAND should cost more area")
	}
	if lib.Delay(Nor, 2) >= lib.Delay(Nor, 4) {
		t.Error("wider NOR should be slower")
	}
	// Unknown combinations fall back to defaults, not panic.
	if lib.Area(And, 9) <= 0 {
		t.Error("default area must be positive")
	}
}
