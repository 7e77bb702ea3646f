package atpg

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// randWinCircuit generates a random sequential circuit for the window
// differential tests: a few primary inputs, DFFs rewired onto the
// combinational cloud for real feedback, a Const0 and a Const1, a cloud
// of random bounded-fanin gates, and a few primary outputs.
func randWinCircuit(t *testing.T, rng *rand.Rand, trial int) *netlist.Circuit {
	t.Helper()
	c := netlist.New(fmt.Sprintf("wrnd%d", trial))
	var pool []int
	nPI := 2 + rng.Intn(3)
	for i := 0; i < nPI; i++ {
		pool = append(pool, c.AddGate(netlist.Input, fmt.Sprintf("i%d", i)))
	}
	var dffs []int
	nDFF := 1 + rng.Intn(4)
	for i := 0; i < nDFF; i++ {
		dffs = append(dffs, c.AddGate(netlist.DFF, fmt.Sprintf("q%d", i), pool[rng.Intn(len(pool))]))
	}
	pool = append(pool, dffs...)
	pool = append(pool, c.AddGate(netlist.Const0, "k0"), c.AddGate(netlist.Const1, "k1"))
	kinds := []netlist.GateType{
		netlist.And, netlist.Or, netlist.Nand, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf,
	}
	nGates := 15 + rng.Intn(30)
	for i := 0; i < nGates; i++ {
		k := kinds[rng.Intn(len(kinds))]
		var width int
		switch k {
		case netlist.Not, netlist.Buf:
			width = 1
		case netlist.Xor, netlist.Xnor:
			width = 2
		default:
			width = 2 + rng.Intn(netlist.MaxFanin-1)
		}
		fanin := make([]int, width)
		for j := range fanin {
			fanin[j] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, c.AddGate(k, fmt.Sprintf("g%d", i), fanin...))
	}
	for _, d := range dffs {
		c.Gates[d].Fanin[0] = pool[len(pool)-1-rng.Intn(10)]
	}
	nPO := 1 + rng.Intn(3)
	for i := 0; i < nPO; i++ {
		c.AddGate(netlist.Output, fmt.Sprintf("o%d", i), pool[len(pool)-1-rng.Intn(len(pool)/2)])
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkWindowsEqual pins got against want, and both against the
// from-scratch oracle of got's inputs (want must hold the same
// assignments), on every observable the search reads.
func checkWindowsEqual(t *testing.T, label string, got, want *window) {
	t.Helper()
	ref := oracleOf(got)
	compareWindows(t, label, got, ref)
	compareWindows(t, label+" (want)", want, ref)
}

// compareWindows compares the observables the search reads from a
// window: every composite value (the window's codes decoded, against
// the oracle's V5 rows), the D-frontier (contents AND order — objective
// selection tie-breaks on first encounter), PO detection, the escaping
// last-frame effects, and the fault-line good value.
func compareWindows(t *testing.T, label string, got *window, want windowOracle) {
	t.Helper()
	for tf, row := range want.vals {
		for p, v := range row {
			if g := got.val(tf, p); g != v {
				t.Fatalf("%s: frame %d position %d is %v, oracle has %v", label, tf, p, g, v)
			}
		}
	}
	gf := got.dFrontier()
	if len(gf) != len(want.frontier) {
		t.Fatalf("%s: frontier size %d, oracle has %d", label, len(gf), len(want.frontier))
	}
	for i := range gf {
		if gf[i] != want.frontier[i] {
			t.Fatalf("%s: frontier[%d] = %v, oracle has %v", label, i, gf[i], want.frontier[i])
		}
	}
	if want := want.poDCount > 0; got.detectedAtPO() != want {
		t.Fatalf("%s: poDetected %v, oracle %v", label, got.detectedAtPO(), want)
	}
	if !reflect.DeepEqual(got.poD, want.poD) {
		t.Fatalf("%s: per-PO detection flags diverge", label)
	}
	if got.dReachesLastState() != want.dLast {
		t.Fatalf("%s: dLast %v, oracle %v", label, got.dReachesLastState(), want.dLast)
	}
	if got.flt != nil && got.faultLineGood() != want.lineGood {
		t.Fatalf("%s: faultLineGood %v, oracle %v", label, got.faultLineGood(), want.lineGood)
	}
}

// windowOracle is the from-scratch reference for one window: its
// composite values as V5 rows, and the snapshot derived from them.
type windowOracle struct {
	vals     [][]V5 // [frame][position]
	poD      []bool // [t*n+p]
	poDCount int
	frontier []frontierEntry
	dLast    bool // an effect escapes through a last-frame D line
	lineGood sim.Val
}

// oracleOf derives, from w's pseudo-input assignments alone, the window
// a correct simulation must produce — without the window's evaluator or
// its code tables. Values come from evalGate5 over each gate's fanin
// values with the fault injected, in topological order; the snapshot
// comes from rescans: a per-pin scan for the D-frontier, a POPos scan
// for PO detection, and a last-frame D-line scan for escaping effects.
func oracleOf(w *window) windowOracle {
	s := w.s
	o := windowOracle{vals: make([][]V5, w.k), poD: make([]bool, w.k*w.n)}
	// fanin is the value pin of position p sees in frame t.
	fanin := func(t, p, pin int) V5 {
		v := o.vals[t][s.Fanin[int(s.FaninOff[p])+pin]]
		if p == w.fPos && pin == w.fPin {
			v.F = w.fSA
		}
		return v
	}
	for t := range o.vals {
		o.vals[t] = make([]V5, w.n)
		for p, kind := range s.Kind {
			var v V5
			switch kind {
			case netlist.Input:
				v = vBoth(w.piVals[t][s.PIAt[p]])
			case netlist.DFF:
				if t == 0 {
					v = vBoth(w.stateVals[s.DFFAt[p]])
				} else {
					v = fanin(t-1, p, 0)
				}
			default:
				in := make([]V5, s.FaninOff[p+1]-s.FaninOff[p])
				for pin := range in {
					in[pin] = fanin(t, p, pin)
				}
				v = evalGate5(kind, in)
			}
			if p == w.fPos && w.fPin < 0 {
				v.F = w.fSA
			}
			o.vals[t][p] = v
		}
	}
	if w.flt == nil {
		return o
	}
	for t := range o.vals {
		for _, p := range s.POPos {
			if o.vals[t][p].isD() {
				o.poD[t*w.n+int(p)] = true
				o.poDCount++
			}
		}
		for p, kind := range s.Kind {
			switch kind {
			case netlist.Input, netlist.DFF, netlist.Const0, netlist.Const1:
				continue
			}
			if o.vals[t][p].known() {
				continue
			}
			for pin := 0; pin < int(s.FaninOff[p+1]-s.FaninOff[p]); pin++ {
				if fanin(t, p, pin).isD() {
					o.frontier = append(o.frontier, frontierEntry{t, p})
					break
				}
			}
		}
	}
	pos, _ := w.excitationObjective()
	o.lineGood = o.vals[0][pos].G
	for _, q := range s.DFFPos {
		o.dLast = o.dLast || fanin(w.k-1, int(q), 0).isD()
	}
	return o
}

// traceOp is one PODEM-style probe: assign or retract one pseudo-input.
type traceOp struct {
	state bool // state bit vs primary input
	t, i  int
	v     sim.Val
}

// randTrace builds a random assignment/retraction trace. Retractions
// (assignments back to VX, mirroring PODEM backtracking) are generated
// by replaying an earlier op with VX.
func randTrace(rng *rand.Rand, k, nPI, nDFF, steps int) []traceOp {
	var ops []traceOp
	vals := []sim.Val{sim.V0, sim.V1, sim.VX}
	for len(ops) < steps {
		if len(ops) > 0 && rng.Intn(4) == 0 {
			// Retract a random earlier assignment.
			prev := ops[rng.Intn(len(ops))]
			prev.v = sim.VX
			ops = append(ops, prev)
			continue
		}
		op := traceOp{v: vals[rng.Intn(len(vals))]}
		if nDFF > 0 && rng.Intn(3) == 0 {
			op.state = true
			op.i = rng.Intn(nDFF)
		} else {
			op.t = rng.Intn(k)
			op.i = rng.Intn(nPI)
		}
		ops = append(ops, op)
	}
	return ops
}

func (op traceOp) apply(w *window) {
	if op.state {
		w.setState(op.i, op.v)
	} else {
		w.setPI(op.t, op.i, op.v)
	}
}

// TestWindowDifferential drives randomized circuits through random
// PODEM-style assignment/retraction traces and pins the incremental
// window, and a full-sweep window, against the from-scratch oracle
// after every single probe: values, D-frontier (including order), PO
// detection, escaping effects, and fault-line good value must all be
// identical, for the faulted and the fault-free window, in one-frame
// and multi-frame windows, across every fallback mode. The oblivious verification mode must additionally charge
// exactly the same effort as plain incremental mode.
func TestWindowDifferential(t *testing.T) {
	trials := 6
	steps := 60
	if testing.Short() {
		trials, steps = 2, 25
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < trials; trial++ {
		c := randWinCircuit(t, rng, trial)
		order, err := c.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		universe := fault.FullUniverse(c)
		flts := []*fault.Fault{nil}
		for len(flts) < 4 {
			f := universe[rng.Intn(len(universe))]
			flts = append(flts, &f)
		}
		// Faults on the frame boundary: a branch fault on a DFF's D pin
		// and a stem fault on the gate driving a D line.
		q := c.DFFs[rng.Intn(len(c.DFFs))]
		flts = append(flts,
			&fault.Fault{Gate: q, Pin: 0, SA: sim.Val(rng.Intn(2))},
			&fault.Fault{Gate: c.Gates[q].Fanin[0], Pin: -1, SA: sim.Val(rng.Intn(2))})
		// k = 1 is the shape of every justification window.
		for _, k := range []int{1, 2 + rng.Intn(4)} {
			for fi, flt := range flts {
				trace := randTrace(rng, k, len(c.PIs), len(c.DFFs), steps)
				for _, fb := range []int{0, -1, 2} {
					inc := newWindow(soaOf(t, c), k, flt)
					inc.fallbackEvals = fb
					obl := newWindow(soaOf(t, c), k, flt)
					obl.fallbackEvals = fb
					obl.oblivious = true
					ref := newWindow(soaOf(t, c), k, flt)

					// Fresh windows must charge exactly one full sweep.
					if got := inc.simulate(); got != k*len(order) {
						t.Fatalf("fresh window charged %d, want %d", got, k*len(order))
					}
					obl.simulate()
					ref.simulate()
					checkWindowsEqual(t, "fresh", inc, ref)

					total := 0
					for si, op := range trace {
						op.apply(inc)
						op.apply(obl)
						op.apply(ref)
						incEvals := inc.simulate()
						oblEvals := obl.simulate()
						ref.invalidate()
						ref.simulate()

						label := fmt.Sprintf("trial %d k %d fault %d fb %d step %d", trial, k, fi, fb, si)
						checkWindowsEqual(t, label, inc, ref)
						checkWindowsEqual(t, label+" (oblivious)", obl, ref)
						if incEvals != oblEvals {
							t.Fatalf("%s: oblivious mode charged %d, incremental %d", label, oblEvals, incEvals)
						}
						if fb < 0 && incEvals > k*len(order) {
							t.Fatalf("%s: pure event-driven charged %d > one full sweep %d", label, incEvals, k*len(order))
						}
						if incEvals > 2*k*len(order) {
							t.Fatalf("%s: charged %d > fallback bound %d", label, incEvals, 2*k*len(order))
						}
						total += incEvals
					}
					// A quiesced window costs nothing to re-simulate.
					if got := inc.simulate(); got != 0 {
						t.Fatalf("quiesced window charged %d, want 0", got)
					}
					if total <= 0 {
						t.Fatalf("trace charged no effort at all")
					}
				}
			}
		}
	}
}

// TestWindowRetractionSymmetry pins that retracting an assignment
// restores the exact pre-assignment window state (values and snapshot),
// the property PODEM's backtracking relies on.
func TestWindowRetractionSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randWinCircuit(t, rng, 900)
	universe := fault.FullUniverse(c)
	f := universe[len(universe)/2]
	k := 3

	w := newWindow(soaOf(t, c), k, &f)
	ref := newWindow(soaOf(t, c), k, &f)
	w.simulate()
	ref.simulate()

	for step := 0; step < 30; step++ {
		op := randTrace(rng, k, len(c.PIs), len(c.DFFs), 1)[0]
		if op.v == sim.VX {
			continue
		}
		op.apply(w)
		w.simulate()
		op.v = sim.VX
		op.apply(w)
		w.simulate()
		checkWindowsEqual(t, fmt.Sprintf("step %d", step), w, ref)
	}
}
