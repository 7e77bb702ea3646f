package main

import (
	"fmt"
	"math/rand"
	"time"

	"seqatpg/internal/bench"
	"seqatpg/internal/fault"
	"seqatpg/internal/fsm"
	"seqatpg/internal/netlist"
	"seqatpg/internal/retime"
	"seqatpg/internal/synth"
)

// circuit is one member of the paper's suite, ready for every layer:
// the netlist, its measured reset-hold length (as cmd/atpg derives it)
// and its full collapsed fault universe.
type circuit struct {
	name     string
	fsm      string
	c        *netlist.Circuit
	flush    int
	retimed  bool
	universe []fault.Fault
}

// setupTimes splits one suite build into the setup layer's modules.
type setupTimes struct {
	synth    time.Duration // fsm generation + minimization + synthesis
	retime   time.Duration // backward retiming + flush measurement
	universe time.Duration // collapsed fault universes
}

// suiteSpecs picks the first bench.PairSpecs pair of each of the six
// benchmark machines, in paper order.
func suiteSpecs() []bench.PairSpec {
	seen := map[string]bool{}
	var out []bench.PairSpec
	for _, p := range bench.PairSpecs() {
		if !seen[p.FSM] {
			seen[p.FSM] = true
			out = append(out, p)
		}
	}
	return out
}

// buildSuite synthesizes the six original circuits and their retimed
// versions, in the order orig, retimed per machine. Each module's
// calls are timed, and recorded as spans when tracing.
func buildSuite(tr *tracer) ([]circuit, setupTimes, error) {
	lib := netlist.DefaultLibrary()
	machines := map[string]fsm.GenSpec{}
	for _, b := range fsm.Suite() {
		machines[b.Spec.Name] = b.Spec
	}
	var st setupTimes
	var out []circuit
	for _, spec := range suiteSpecs() {
		gen, ok := machines[spec.FSM]
		if !ok {
			return nil, st, fmt.Errorf("suite: no machine %q", spec.FSM)
		}
		sp := tr.begin("setup.synth", 0)
		t0 := time.Now()
		raw, err := fsm.Generate(gen)
		if err != nil {
			return nil, st, err
		}
		m, err := fsm.Minimize(raw)
		if err != nil {
			return nil, st, err
		}
		syn, err := synth.Synthesize(m, synth.Options{Algorithm: spec.Alg, Script: spec.Script, UseUnreachableDC: true})
		if err != nil {
			return nil, st, err
		}
		st.synth += time.Since(t0)
		tr.end(sp)

		sp = tr.begin("setup.retime", 0)
		t0 = time.Now()
		re, err := retime.Backward(syn.Circuit, lib, spec.Rounds)
		if err != nil {
			return nil, st, err
		}
		pair := [2]*netlist.Circuit{syn.Circuit, re.Circuit}
		var flush [2]int
		for k, c := range pair {
			n, err := retime.FlushLength(c)
			if err != nil {
				return nil, st, err
			}
			flush[k] = max(n, 1)
		}
		st.retime += time.Since(t0)
		tr.end(sp)

		sp = tr.begin("setup.universe", 0)
		t0 = time.Now()
		for k, c := range pair {
			out = append(out, circuit{
				name:     c.Name,
				fsm:      spec.FSM,
				c:        c,
				flush:    flush[k],
				retimed:  k == 1,
				universe: fault.CollapsedUniverse(c),
			})
		}
		st.universe += time.Since(t0)
		tr.end(sp)
	}
	return out, st, nil
}

// sampleFaults takes bench's deterministic stride sample of n faults
// and shuffles it with the seeded generator. The fault set is the same
// for every seed, so the mix of easy and hard faults does not vary;
// the seed decides the campaign's attack order, and with it which
// tests drop which faults and which faults the effort cap cuts off.
func sampleFaults(universe []fault.Fault, n int, rng *rand.Rand) []fault.Fault {
	var out []fault.Fault
	if n >= len(universe) {
		out = append(out, universe...)
	} else {
		stride := float64(len(universe)) / float64(n)
		for k := 0; k < n; k++ {
			out = append(out, universe[int(float64(k)*stride)])
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
