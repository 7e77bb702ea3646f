package atpg

import (
	"fmt"
	"math/rand"
	"testing"

	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// TestPaddedFoldMatchesGeneric feeds every combination of the nine
// fanin codes through each fold kind at each arity the library allows
// (whatever Validate accepts) and pins evalComposite's padded path
// against evalGeneric's kind switch over the CSR fanins: same output
// code, same D-frontier membership, and both equal to evalGate5.
func TestPaddedFoldMatchesGeneric(t *testing.T) {
	rails := []sim.Val{sim.V0, sim.V1, sim.VX}
	var codes []uint8
	for _, g := range rails {
		for _, f := range rails {
			codes = append(codes, codeOf(V5{g, f}))
		}
	}
	kinds := []netlist.GateType{
		netlist.Buf, netlist.Not, netlist.And, netlist.Or,
		netlist.Nand, netlist.Nor, netlist.Xor, netlist.Xnor,
	}
	for _, kind := range kinds {
		for arity := 1; arity <= netlist.MaxFanin; arity++ {
			c := netlist.New(fmt.Sprintf("%v%d", kind, arity))
			ins := make([]int, arity)
			for i := range ins {
				ins[i] = c.AddGate(netlist.Input, fmt.Sprintf("i%d", i))
			}
			g := c.AddGate(kind, "g", ins...)
			c.AddGate(netlist.Output, "o", g)
			if c.Validate() != nil {
				continue // an arity the library does not allow
			}
			s := soaOf(t, c)
			p := int(s.Pos[g])
			if s.Op[p] == netlist.OpGeneric {
				t.Fatalf("%v/%d: generic opcode, want the padded path", kind, arity)
			}
			w := newWindow(s, 1, nil)
			w.simulate()
			pin := make([]int, arity)
			in := make([]V5, arity)
			for {
				for i, ci := range pin {
					w.vals[0][s.Pos[ins[i]]] = codes[ci]
					in[i] = decode[codes[ci]]
				}
				w.evalComposite(0, p)
				got, gotMember := w.vals[0][p], w.inFrontier[p]
				want, m := w.evalGeneric(0, p)
				wantMember := m&codeD != 0 && want&codeX != 0
				if got != want || gotMember != wantMember {
					t.Fatalf("%v%v: padded gives %v (frontier %v), generic %v (frontier %v)",
						kind, in, decode[got], gotMember, decode[want], wantMember)
				}
				if oracle := codeOf(evalGate5(kind, in)); got != oracle {
					t.Fatalf("%v%v: padded gives %v, evalGate5 %v", kind, in, decode[got], decode[oracle])
				}
				if (len(w.frontier) == 1) != gotMember {
					t.Fatalf("%v%v: frontier %v with membership %v", kind, in, w.frontier, gotMember)
				}
				// Next combination, odometer style.
				i := 0
				for ; i < arity; i++ {
					if pin[i]++; pin[i] < len(codes) {
						break
					}
					pin[i] = 0
				}
				if i == arity {
					break
				}
			}
		}
	}
}

// checkPadSentinel fails unless every frame's sentinel slot n+1, which
// the padded fanin slots read, still holds code 0.
func checkPadSentinel(t *testing.T, label string, w *window) {
	t.Helper()
	for tf, row := range w.vals {
		if row[w.n+1] != 0 {
			t.Fatalf("%s: frame %d sentinel slot holds %#x", label, tf, row[w.n+1])
		}
	}
}

// TestPadSentinelStaysZero pins that no window operation writes the
// sentinel slot: full sweeps, incremental probes, invalidate, and
// pin-fault injection into the scratch slot beside it.
func TestPadSentinelStaysZero(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3; trial++ {
		c := randWinCircuit(t, rng, 700+trial)
		s := soaOf(t, c)
		q := c.DFFs[rng.Intn(len(c.DFFs))]
		universe := fault.FullUniverse(c)
		pinFault := universe[0]
		for _, f := range universe {
			if f.Pin >= 0 {
				pinFault = f
				break
			}
		}
		flts := []*fault.Fault{
			nil,
			&pinFault,
			{Gate: q, Pin: 0, SA: sim.V1}, // the D pin: injection reads the previous frame
			{Gate: c.Gates[q].Fanin[0], Pin: -1, SA: sim.V0},
		}
		for fi, flt := range flts {
			k := 3
			w := newWindow(s, k, flt)
			w.simulate()
			label := fmt.Sprintf("trial %d fault %d", trial, fi)
			checkPadSentinel(t, label+" sweep", w)
			for si, op := range randTrace(rng, k, len(c.PIs), len(c.DFFs), 20) {
				op.apply(w)
				w.simulate()
				checkPadSentinel(t, fmt.Sprintf("%s step %d", label, si), w)
			}
			w.invalidate()
			checkPadSentinel(t, label+" invalidate", w)
			w.simulate()
			checkPadSentinel(t, label+" resweep", w)
			if flt != nil && flt.Pin >= 0 {
				for tf := 0; tf < k; tf++ {
					w.injectPin(tf)
					checkPadSentinel(t, fmt.Sprintf("%s inject frame %d", label, tf), w)
				}
			}
			compareWindows(t, label, w, oracleOf(w))
		}
	}
}

// TestWideGateWindowMatchesOracle runs a window over gates wider than
// netlist.MaxFanin, which AddGate builds but Validate would refuse:
// they get the generic opcode, and the window still matches the
// from-scratch oracle under stem and pin faults on them.
func TestWideGateWindowMatchesOracle(t *testing.T) {
	c := netlist.New("wide")
	var ins []int
	for i := 0; i < netlist.MaxFanin+2; i++ {
		ins = append(ins, c.AddGate(netlist.Input, fmt.Sprintf("i%d", i)))
	}
	q := c.AddGate(netlist.DFF, "q", ins[0]) // rewired below
	wideAnd := c.AddGate(netlist.And, "wa", append([]int{q}, ins...)...)
	wideXor := c.AddGate(netlist.Xor, "wx", ins[:netlist.MaxFanin+1]...)
	wideNor := c.AddGate(netlist.Nor, "wn", wideAnd, wideXor, q, ins[1], ins[2])
	c.Gates[q].Fanin[0] = wideNor
	c.AddGate(netlist.Output, "o1", wideAnd)
	c.AddGate(netlist.Output, "o2", wideNor)
	s := soaOf(t, c)
	for _, g := range []int{wideAnd, wideXor, wideNor} {
		if op := s.Op[s.Pos[g]]; op != netlist.OpGeneric {
			t.Fatalf("%s: opcode %d, want generic", c.Gates[g].Name, op)
		}
	}
	flts := []*fault.Fault{
		nil,
		{Gate: wideAnd, Pin: -1, SA: sim.V0},
		{Gate: wideAnd, Pin: netlist.MaxFanin + 1, SA: sim.V0},
		{Gate: wideXor, Pin: netlist.MaxFanin, SA: sim.V1},
		{Gate: wideNor, Pin: 0, SA: sim.V1},
		{Gate: q, Pin: 0, SA: sim.V0},
	}
	rng := rand.New(rand.NewSource(23))
	for fi, flt := range flts {
		for _, k := range []int{1, 3} {
			w := newWindow(s, k, flt)
			ref := newWindow(s, k, flt)
			w.simulate()
			ref.simulate()
			for si, op := range randTrace(rng, k, len(c.PIs), len(c.DFFs), 40) {
				op.apply(w)
				op.apply(ref)
				w.simulate()
				ref.invalidate()
				ref.simulate()
				checkWindowsEqual(t, fmt.Sprintf("fault %d k %d step %d", fi, k, si), w, ref)
			}
		}
	}
}
