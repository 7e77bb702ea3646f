package fault

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// randomDiffCircuit generates a random sequential circuit: a layer of
// primary inputs, a handful of DFFs whose D pins are rewired onto the
// combinational cloud after it is built (creating real feedback loops
// and DFF stem/branch fault sites), a cloud of random bounded-fanin
// gates, and a few primary outputs.
func randomDiffCircuit(t *testing.T, rng *rand.Rand, trial int) *netlist.Circuit {
	t.Helper()
	c := netlist.New(fmt.Sprintf("rnd%d", trial))
	var pool []int
	nPI := 2 + rng.Intn(3)
	for i := 0; i < nPI; i++ {
		pool = append(pool, c.AddGate(netlist.Input, fmt.Sprintf("i%d", i)))
	}
	var dffs []int
	nDFF := 1 + rng.Intn(4)
	for i := 0; i < nDFF; i++ {
		// Placeholder D pin; rewired below once the cloud exists.
		dffs = append(dffs, c.AddGate(netlist.DFF, fmt.Sprintf("q%d", i), pool[rng.Intn(len(pool))]))
	}
	pool = append(pool, dffs...)
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
	// Feedback: point each DFF's D at a late cloud gate so the state
	// actually depends on the logic (and transitively on itself).
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

// randomXSeq generates an X-heavy vector sequence: the power-up state
// is all-X already, and sprinkling X into the inputs keeps three-valued
// paths (the unknown-propagation rules) under test, not just binary ones.
func randomXSeq(rng *rand.Rand, nPI, frames int, xProb float64) [][]sim.Val {
	seq := make([][]sim.Val, frames)
	for i := range seq {
		vec := make([]sim.Val, nPI)
		for j := range vec {
			switch {
			case rng.Float64() < xProb:
				vec[j] = sim.VX
			case rng.Intn(2) == 0:
				vec[j] = sim.V0
			default:
				vec[j] = sim.V1
			}
		}
		seq[i] = vec
	}
	return seq
}

// TestKernelDifferential cross-checks the event-driven kernel on
// randomized circuits three ways:
//
//   - against the serialDetects oracle (single-fault structural
//     rewiring through the plain good-machine simulator);
//   - serial Detects across the fallback modes (default active-region,
//     never-fallback, always-oblivious) — all must agree exactly;
//   - DetectsParallel at several worker counts — results must be
//     byte-identical to serial for every count.
//
// The full (uncollapsed) universe is used so DFF stem and branch
// faults are all present.
func TestKernelDifferential(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 3
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < trials; trial++ {
		c := randomDiffCircuit(t, rng, trial)
		faults := FullUniverse(c)
		seq := randomXSeq(rng, len(c.PIs), 4+rng.Intn(10), 0.25)
		fs, err := NewSimulator(c)
		if err != nil {
			t.Fatal(err)
		}

		ref, err := fs.Detects(seq, faults)
		if err != nil {
			t.Fatal(err)
		}

		// Oracle pass: every fault, one at a time, via structural rewiring.
		for i, f := range faults {
			if want := serialDetects(t, c, seq, f); ref[i] != want {
				t.Errorf("trial %d fault %v: kernel=%v oracle=%v", trial, f, ref[i], want)
			}
		}

		// Fallback modes must not change results, only effort.
		for _, mode := range []int{-1, 1} {
			fs.fallbackEvals = mode
			got, err := fs.Detects(seq, faults)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Errorf("trial %d fault %v: fallbackEvals=%d gives %v, default gives %v",
						trial, faults[i], mode, got[i], ref[i])
				}
			}
		}
		fs.fallbackEvals = 0

		// Worker-count invariance: byte-identical for every count.
		for _, workers := range []int{1, 2, 3, 8} {
			got, err := fs.DetectsParallel(context.Background(), seq, faults, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Errorf("trial %d fault %v: workers=%d gives %v, serial gives %v",
						trial, faults[i], workers, got[i], ref[i])
				}
			}
		}

		// DetectsOne (the single-fault confirmation fast path) must
		// agree with the batched verdicts too.
		for i := 0; i < len(faults); i += 1 + len(faults)/40 {
			one, err := fs.DetectsOne(seq, faults[i])
			if err != nil {
				t.Fatal(err)
			}
			if one != ref[i] {
				t.Errorf("trial %d fault %v: DetectsOne=%v batch=%v", trial, faults[i], one, ref[i])
			}
		}
	}
}

// TestDetectsParallelCancel: a cancelled context must surface as an
// error, not as a partial result presented as complete.
func TestDetectsParallelCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomDiffCircuit(t, rng, 1000)
	faults := FullUniverse(c)
	seq := randomXSeq(rng, len(c.PIs), 8, 0.2)
	fs, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fs.DetectsParallel(ctx, seq, faults, 4); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
