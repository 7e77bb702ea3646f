// Package fault provides the single-stuck-at fault model: the fault
// universe over all gate terminals, structural equivalence collapsing,
// and a PROOFS-style bit-parallel sequential fault simulator (the good
// circuit and up to 63 faulty circuits advance together in one 64-bit
// word per net).
package fault

import (
	"fmt"

	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// Fault is a single stuck-at fault on a gate terminal. Pin < 0 denotes
// the gate's output stem; Pin >= 0 denotes the fanin branch at that
// position. SA is the stuck value (sim.V0 or sim.V1).
type Fault struct {
	Gate int
	Pin  int
	SA   sim.Val
}

// String renders a fault like "g12/in2 s-a-1" or "g7 s-a-0".
func (f Fault) String() string {
	if f.Pin < 0 {
		return fmt.Sprintf("g%d s-a-%s", f.Gate, f.SA)
	}
	return fmt.Sprintf("g%d/in%d s-a-%s", f.Gate, f.Pin, f.SA)
}

// FullUniverse enumerates the uncollapsed stuck-at fault list: an
// output-stem pair per gate that drives something, and an input-branch
// pair per fanin of every gate. Output gates get no stem faults (their
// input branch is the observable line).
func FullUniverse(c *netlist.Circuit) []Fault {
	fanouts := c.Fanouts()
	n := 0 // a stem pair per gate bounds the list
	for _, g := range c.Gates {
		n += 2 * (1 + len(g.Fanin))
	}
	out := make([]Fault, 0, n)
	for id, g := range c.Gates {
		if g.Type != netlist.Output && len(fanouts[id]) > 0 {
			out = append(out, Fault{Gate: id, Pin: -1, SA: sim.V0})
			out = append(out, Fault{Gate: id, Pin: -1, SA: sim.V1})
		}
		for pin := range g.Fanin {
			out = append(out, Fault{Gate: id, Pin: pin, SA: sim.V0})
			out = append(out, Fault{Gate: id, Pin: pin, SA: sim.V1})
		}
	}
	return out
}

// Collapse performs structural equivalence collapsing on the fault list
// using the classic per-gate rules plus single-fanout stem/branch
// merging, and returns one representative per equivalence class.
// Faults the rules never name (off the circuit, or with a stuck value
// other than V0/V1) are kept as they are; of duplicates, the last
// takes part in the classes and the earlier ones are kept as they are.
func Collapse(c *netlist.Circuit, faults []Fault) []Fault {
	// Every terminal owns two slots, stuck-at-0 then stuck-at-1: the
	// output stem at base[g], then one pair per fanin pin. slot holds
	// the index in faults of the fault on each, or -1.
	base := make([]int, len(c.Gates)+1)
	for id, g := range c.Gates {
		base[id+1] = base[id] + 2*(1+len(g.Fanin))
	}
	slot := make([]int, base[len(c.Gates)])
	for i := range slot {
		slot[i] = -1
	}
	at := func(f Fault) int {
		if f.Gate < 0 || f.Gate >= len(c.Gates) || f.Pin < -1 ||
			f.Pin >= len(c.Gates[f.Gate].Fanin) || f.SA > sim.V1 {
			return -1
		}
		return base[f.Gate] + 2*(f.Pin+1) + int(f.SA)
	}
	for i, f := range faults {
		if x := at(f); x >= 0 {
			slot[x] = i
		}
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
	union := func(a, b Fault) {
		xa, xb := at(a), at(b)
		if xa < 0 || xb < 0 || slot[xa] < 0 || slot[xb] < 0 {
			return
		}
		ia, ib := slot[xa], slot[xb]
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
				union(Fault{id, 0, v}, Fault{id, -1, v})
			}
		case netlist.Not:
			for _, v := range []sim.Val{sim.V0, sim.V1} {
				union(Fault{id, 0, v}, Fault{id, -1, inv(v)})
			}
		case netlist.And:
			for pin := range g.Fanin {
				union(Fault{id, pin, sim.V0}, Fault{id, -1, sim.V0})
			}
		case netlist.Nand:
			for pin := range g.Fanin {
				union(Fault{id, pin, sim.V0}, Fault{id, -1, sim.V1})
			}
		case netlist.Or:
			for pin := range g.Fanin {
				union(Fault{id, pin, sim.V1}, Fault{id, -1, sim.V1})
			}
		case netlist.Nor:
			for pin := range g.Fanin {
				union(Fault{id, pin, sim.V1}, Fault{id, -1, sim.V0})
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
			union(Fault{id, -1, v}, Fault{reader, pin, v})
		}
	}
	var out []Fault
	for i, f := range faults {
		if find(i) == i {
			out = append(out, f)
		}
	}
	return out
}

// CollapsedUniverse is FullUniverse followed by Collapse.
func CollapsedUniverse(c *netlist.Circuit) []Fault {
	return Collapse(c, FullUniverse(c))
}
