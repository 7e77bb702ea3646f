package netlist

import (
	"fmt"
	"math/rand"
	"testing"
)

// soaTestCircuit builds a small sequential circuit exercising every
// structural feature the SoA view must capture: multi-fanin gates,
// fanout branching, DFF feedback, constants, and IO ordering.
func soaTestCircuit(t *testing.T) *Circuit {
	t.Helper()
	c := New("soa")
	a := c.AddGate(Input, "a")
	b := c.AddGate(Input, "b")
	q := c.AddGate(DFF, "q", a) // rewired below
	n1 := c.AddGate(Nand, "n1", a, b, q)
	x1 := c.AddGate(Xor, "x1", n1, q)
	k0 := c.AddGate(Const0, "k0")
	o1 := c.AddGate(Or, "o1", x1, k0)
	c.Gates[q].Fanin[0] = o1
	c.AddGate(Output, "z", x1)
	c.AddGate(Output, "y", n1)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func randomSoACircuit(t *testing.T, rng *rand.Rand, trial int) *Circuit {
	t.Helper()
	c := New(fmt.Sprintf("soarnd%d", trial))
	var pool []int
	for i := 0; i < 2+rng.Intn(3); i++ {
		pool = append(pool, c.AddGate(Input, fmt.Sprintf("i%d", i)))
	}
	var dffs []int
	for i := 0; i < 1+rng.Intn(3); i++ {
		dffs = append(dffs, c.AddGate(DFF, fmt.Sprintf("q%d", i), pool[rng.Intn(len(pool))]))
	}
	pool = append(pool, dffs...)
	kinds := []GateType{And, Or, Nand, Nor, Xor, Xnor, Not, Buf}
	for i := 0; i < 10+rng.Intn(20); i++ {
		k := kinds[rng.Intn(len(kinds))]
		w := 2
		switch k {
		case Not, Buf:
			w = 1
		case Xor, Xnor:
			w = 2
		default:
			w = 2 + rng.Intn(MaxFanin-1)
		}
		fanin := make([]int, w)
		for j := range fanin {
			fanin[j] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, c.AddGate(k, fmt.Sprintf("g%d", i), fanin...))
	}
	for _, d := range dffs {
		c.Gates[d].Fanin[0] = pool[len(pool)-1-rng.Intn(5)]
	}
	c.AddGate(Output, "o", pool[len(pool)-1])
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkSoA cross-checks every invariant of the flattened view against
// the circuit it was built from.
func checkSoA(t *testing.T, c *Circuit) {
	t.Helper()
	s, err := NewSoA(c)
	if err != nil {
		t.Fatal(err)
	}
	n := len(c.Gates)
	if s.NumGates() != n || s.NumDFFs() != len(c.DFFs) {
		t.Fatalf("counts: %d gates %d dffs, want %d %d", s.NumGates(), s.NumDFFs(), n, len(c.DFFs))
	}
	// Order/Pos are inverse permutations.
	for p := 0; p < n; p++ {
		if s.Pos[s.Order[p]] != int32(p) {
			t.Fatalf("Pos[Order[%d]] = %d", p, s.Pos[s.Order[p]])
		}
	}
	evals := 0
	for p := 0; p < n; p++ {
		id := s.Order[p]
		g := &c.Gates[id]
		if s.Kind[p] != g.Type {
			t.Fatalf("pos %d: kind %v, want %v", p, s.Kind[p], g.Type)
		}
		if int32(evals) != s.EvalsBefore[p] {
			t.Fatalf("pos %d: EvalsBefore %d, want %d", p, s.EvalsBefore[p], evals)
		}
		if g.Type != Input && g.Type != DFF {
			evals++
		}
		// Fanin CSR matches the gate's pins in order; combinational
		// fanins sit at earlier positions.
		fan := s.Fanin[s.FaninOff[p]:s.FaninOff[p+1]]
		if len(fan) != len(g.Fanin) {
			t.Fatalf("pos %d: %d fanins, want %d", p, len(fan), len(g.Fanin))
		}
		for k, f := range g.Fanin {
			if fan[k] != s.Pos[f] {
				t.Fatalf("pos %d pin %d: fanin pos %d, want %d", p, k, fan[k], s.Pos[f])
			}
			if g.Type != DFF && fan[k] >= int32(p) {
				t.Fatalf("pos %d pin %d: fanin at later position %d", p, k, fan[k])
			}
		}
		// Padded view: the CSR fanins, then the pad position (all pad
		// for a gate wider than MaxFanin), and the fold row the kind
		// evaluates as.
		for k, f := range s.Fan4[p] {
			want := int32(n + 1)
			if len(fan) <= MaxFanin && k < len(fan) {
				want = fan[k]
			}
			if f != want {
				t.Fatalf("pos %d: padded slot %d holds %d, want %d", p, k, f, want)
			}
		}
		if op, want := s.Op[p], wantOp(g.Type, len(g.Fanin)); op != want {
			t.Fatalf("pos %d (%v/%d): opcode %d, want %d", p, g.Type, len(g.Fanin), op, want)
		}
		// Fanout CSR: exactly the non-DFF readers, all later.
		want := map[int32]int{}
		for oid, og := range c.Gates {
			if og.Type == DFF {
				continue
			}
			for _, f := range og.Fanin {
				if f == int(id) {
					want[s.Pos[oid]]++
				}
			}
		}
		got := map[int32]int{}
		for _, o := range s.Fout[s.FoutOff[p]:s.FoutOff[p+1]] {
			got[o]++
			if o <= int32(p) {
				t.Fatalf("pos %d: fanout at earlier position %d", p, o)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("pos %d: fanouts %v, want %v", p, got, want)
		}
		for o, cnt := range want {
			if got[o] != cnt {
				t.Fatalf("pos %d: fanout %d seen %d times, want %d", p, o, got[o], cnt)
			}
		}
	}
	if evals != s.EvalGates || s.EvalsBefore[n] != int32(evals) {
		t.Fatalf("EvalGates %d (final EvalsBefore %d), want %d", s.EvalGates, s.EvalsBefore[n], evals)
	}
	// IO and DFF position tables.
	for i, id := range c.PIs {
		if s.PIPos[i] != s.Pos[id] {
			t.Fatalf("PI %d: pos %d, want %d", i, s.PIPos[i], s.Pos[id])
		}
	}
	for i, id := range c.POs {
		if s.POPos[i] != s.Pos[id] {
			t.Fatalf("PO %d: pos %d, want %d", i, s.POPos[i], s.Pos[id])
		}
	}
	piAt := map[int32]int32{}
	for i, id := range c.PIs {
		piAt[s.Pos[id]] = int32(i)
	}
	for p := 0; p < n; p++ {
		want, ok := piAt[int32(p)]
		if !ok {
			want = -1
		}
		if s.PIAt[p] != want {
			t.Fatalf("PIAt[%d] = %d, want %d", p, s.PIAt[p], want)
		}
	}
	loads := map[int32][]int32{}
	at := map[int32]int32{}
	for i, id := range c.DFFs {
		if s.DFFPos[i] != s.Pos[id] {
			t.Fatalf("DFF %d: pos %d, want %d", i, s.DFFPos[i], s.Pos[id])
		}
		if s.DFFD[i] != s.Pos[c.Gates[id].Fanin[0]] {
			t.Fatalf("DFF %d: D pos %d, want %d", i, s.DFFD[i], s.Pos[c.Gates[id].Fanin[0]])
		}
		at[s.Pos[id]] = int32(i)
		loads[s.DFFD[i]] = append(loads[s.DFFD[i]], int32(i))
	}
	for p := 0; p < n; p++ {
		got := s.DLoad[s.DLoadOff[p]:s.DLoadOff[p+1]]
		if fmt.Sprint(got) != fmt.Sprint(loads[int32(p)]) && len(got)+len(loads[int32(p)]) > 0 {
			t.Fatalf("DLoad at pos %d = %v, want %v", p, got, loads[int32(p)])
		}
		want, ok := at[int32(p)]
		if !ok {
			want = -1
		}
		if s.DFFAt[p] != want {
			t.Fatalf("DFFAt[%d] = %d, want %d", p, s.DFFAt[p], want)
		}
	}
}

// wantOp is the opcode table written out per kind: each fold kind its
// own And-relative row up to MaxFanin fanins, Buf the And row and Not
// the Nand row, everything else generic.
func wantOp(t GateType, nfan int) uint8 {
	switch t {
	case And:
		if nfan <= MaxFanin {
			return 0
		}
	case Or:
		if nfan <= MaxFanin {
			return 1
		}
	case Nand:
		if nfan <= MaxFanin {
			return 2
		}
	case Nor:
		if nfan <= MaxFanin {
			return 3
		}
	case Xor:
		if nfan <= MaxFanin {
			return 4
		}
	case Xnor:
		if nfan <= MaxFanin {
			return 5
		}
	case Buf:
		if nfan == 1 {
			return 0
		}
	case Not:
		if nfan == 1 {
			return 2
		}
	}
	return OpGeneric
}

func TestSoAView(t *testing.T) {
	checkSoA(t, soaTestCircuit(t))
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		checkSoA(t, randomSoACircuit(t, rng, trial))
	}
}

// TestSoAWideGateIsGeneric builds, with AddGate and no Validate, gates
// wider than MaxFanin: they get the generic opcode and all-pad slots,
// while the library-width gates beside them keep their fold rows.
func TestSoAWideGateIsGeneric(t *testing.T) {
	c := New("wide")
	var ins []int
	for i := 0; i < MaxFanin+1; i++ {
		ins = append(ins, c.AddGate(Input, fmt.Sprintf("i%d", i)))
	}
	wide := c.AddGate(And, "wa", ins...)
	narrow := c.AddGate(Or, "no", ins[:MaxFanin]...)
	c.AddGate(Output, "o1", wide)
	c.AddGate(Output, "o2", narrow)
	if c.Validate() == nil {
		t.Fatal("Validate accepted a gate wider than MaxFanin")
	}
	checkSoA(t, c)
	s, err := NewSoA(c)
	if err != nil {
		t.Fatal(err)
	}
	if op := s.Op[s.Pos[wide]]; op != OpGeneric {
		t.Fatalf("wide And: opcode %d, want generic", op)
	}
	if op := s.Op[s.Pos[narrow]]; op == OpGeneric {
		t.Fatal("MaxFanin-wide Or got the generic opcode")
	}
}

func TestSoACyclicCircuit(t *testing.T) {
	c := New("cyc")
	a := c.AddGate(Input, "a")
	g1 := c.AddGate(And, "g1", a, a)
	g2 := c.AddGate(Or, "g2", g1, a)
	c.Gates[g1].Fanin[1] = g2
	if _, err := NewSoA(c); err == nil {
		t.Fatal("combinational cycle accepted")
	}
}
