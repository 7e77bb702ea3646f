package fault_test

import (
	"math/rand"
	"slices"
	"testing"

	"seqatpg/internal/bench"
	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// referenceCollapse is Collapse as it was before the slot table: a map
// from each fault to its last index in the list.
func referenceCollapse(c *netlist.Circuit, faults []fault.Fault) []fault.Fault {
	idx := map[fault.Fault]int{}
	for i, f := range faults {
		idx[f] = i
	}
	parent := make([]int, len(faults))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b fault.Fault) {
		ia, oka := idx[a]
		ib, okb := idx[b]
		if !oka || !okb {
			return
		}
		ra, rb := find(ia), find(ib)
		if ra != rb {
			// Prefer the smaller index as representative so output is
			// deterministic.
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	inv := func(v sim.Val) sim.Val {
		if v == sim.V0 {
			return sim.V1
		}
		return sim.V0
	}
	fanouts := c.Fanouts()
	for id, g := range c.Gates {
		switch g.Type {
		case netlist.Buf, netlist.DFF, netlist.Output:
			for _, v := range []sim.Val{sim.V0, sim.V1} {
				union(fault.Fault{id, 0, v}, fault.Fault{id, -1, v})
			}
		case netlist.Not:
			for _, v := range []sim.Val{sim.V0, sim.V1} {
				union(fault.Fault{id, 0, v}, fault.Fault{id, -1, inv(v)})
			}
		case netlist.And:
			for pin := range g.Fanin {
				union(fault.Fault{id, pin, sim.V0}, fault.Fault{id, -1, sim.V0})
			}
		case netlist.Nand:
			for pin := range g.Fanin {
				union(fault.Fault{id, pin, sim.V0}, fault.Fault{id, -1, sim.V1})
			}
		case netlist.Or:
			for pin := range g.Fanin {
				union(fault.Fault{id, pin, sim.V1}, fault.Fault{id, -1, sim.V1})
			}
		case netlist.Nor:
			for pin := range g.Fanin {
				union(fault.Fault{id, pin, sim.V1}, fault.Fault{id, -1, sim.V0})
			}
		}
	}
	// Single-fanout stems: the stem fault equals the branch fault at the
	// unique reader (when that reader reads the stem on exactly one pin).
	for id := range c.Gates {
		if len(fanouts[id]) != 1 {
			continue
		}
		reader := fanouts[id][0]
		pin, count := -1, 0
		for p, f := range c.Gates[reader].Fanin {
			if f == id {
				pin = p
				count++
			}
		}
		if count != 1 {
			continue
		}
		for _, v := range []sim.Val{sim.V0, sim.V1} {
			union(fault.Fault{id, -1, v}, fault.Fault{reader, pin, v})
		}
	}
	var out []fault.Fault
	for i, f := range faults {
		if find(i) == i {
			out = append(out, f)
		}
	}
	return out
}

// TestCollapseMatchesReference pins the slot-table Collapse to the
// map-keyed reference on the 12 suite circuits: on each full universe,
// and on lists that are shuffled, subsetted, hold duplicates, or hold
// faults off the circuit (gate, pin or stuck value out of range), which
// the reference keeps as unmerged singletons.
func TestCollapseMatchesReference(t *testing.T) {
	s := bench.NewSuite(bench.QuickBudget())
	seen := map[string]bool{}
	rng := rand.New(rand.NewSource(5))
	check := func(name, list string, c *netlist.Circuit, faults []fault.Fault) {
		t.Helper()
		got, want := fault.Collapse(c, faults), referenceCollapse(c, faults)
		if !slices.Equal(got, want) {
			t.Errorf("%s %s (%d faults): %d representatives, reference %d", name, list, len(faults), len(got), len(want))
		}
	}
	for _, spec := range bench.PairSpecs() {
		if seen[spec.FSM] {
			continue
		}
		seen[spec.FSM] = true
		p, err := s.Pair(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, rc := range []struct {
			name string
			c    *netlist.Circuit
		}{{spec.Name(), p.Orig.Circuit}, {spec.Name() + ".re", p.Re.Circuit}} {
			full := fault.FullUniverse(rc.c)
			check(rc.name, "full", rc.c, full)

			shuffled := slices.Clone(full)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			check(rc.name, "shuffled", rc.c, shuffled)

			var subset []fault.Fault
			for _, f := range shuffled {
				if rng.Intn(3) > 0 {
					subset = append(subset, f)
				}
			}
			check(rc.name, "subset", rc.c, subset)

			dup := slices.Clone(subset)
			for k := 0; k < len(subset)/4; k++ {
				at := rng.Intn(len(dup) + 1)
				dup = slices.Insert(dup, at, subset[rng.Intn(len(subset))])
			}
			check(rc.name, "duplicates", rc.c, dup)

			g := rng.Intn(len(rc.c.Gates))
			odd := slices.Clone(dup)
			for _, f := range []fault.Fault{
				{Gate: len(rc.c.Gates), Pin: -1, SA: sim.V0},
				{Gate: -1, Pin: 0, SA: sim.V1},
				{Gate: g, Pin: len(rc.c.Gates[g].Fanin), SA: sim.V0},
				{Gate: g, Pin: -2, SA: sim.V1},
				{Gate: g, Pin: -1, SA: sim.VX},
				{Gate: g, Pin: 0, SA: sim.VX},
			} {
				odd = slices.Insert(odd, rng.Intn(len(odd)+1), f)
			}
			check(rc.name, "out of range", rc.c, odd)
		}
	}
}
