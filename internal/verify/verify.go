// Package verify provides symbolic sequential equivalence checking
// between two circuits with the same primary interface, via BDD
// reachability on the product machine. It is the formal counterpart of
// the retiming behaviour-preservation property (the paper's Theorem 1
// context): after both machines are flushed by holding the explicit
// reset line, every reachable product state must produce identical
// primary outputs under every input. The gate→BDD builder and the
// flush → fixpoint traversal are reach's; this package lays out the
// product variables and checks the output miter on each frontier.
package verify

import (
	"fmt"

	"seqatpg/internal/bdd"
	"seqatpg/internal/netlist"
	"seqatpg/internal/reach"
)

// Counterexample describes an equivalence violation.
type Counterexample struct {
	// StateA/StateB are the per-DFF values of the violating product
	// state (indexed like the circuits' DFF lists).
	StateA, StateB []bool
	// Inputs is the violating primary input assignment.
	Inputs []bool
	// Output is the index of the differing primary output.
	Output int
}

// String renders the counterexample compactly.
func (c *Counterexample) String() string {
	return fmt.Sprintf("output %d differs: stateA=%v stateB=%v inputs=%v",
		c.Output, c.StateA, c.StateB, c.Inputs)
}

// Options tunes the product traversal.
type Options struct {
	// FlushCycles is the number of reset-held cycles applied to both
	// machines before the outputs are compared (use the retimed
	// circuit's flush length). Values < 1 are treated as 1.
	FlushCycles int
	// MaxNodes bounds the number of BDD nodes allocated (0 = default).
	// Nodes are never reclaimed, so the bound limits allocation
	// history, not live size.
	MaxNodes int
}

// Equivalent checks I/O equivalence of a and b after the flush prefix.
// Both circuits must have the same number of primary inputs and outputs
// and a reset line at the same PI position.
func Equivalent(a, b *netlist.Circuit, opt Options) (bool, *Counterexample, error) {
	if len(a.PIs) != len(b.PIs) || len(a.POs) != len(b.POs) {
		return false, nil, fmt.Errorf("verify: interface mismatch: %d/%d PIs, %d/%d POs",
			len(a.PIs), len(b.PIs), len(a.POs), len(b.POs))
	}
	ra, rb := a.ResetIndex(), b.ResetIndex()
	if ra < 0 || rb < 0 || ra != rb {
		return false, nil, fmt.Errorf("verify: both circuits need the reset line at the same input position")
	}

	na, nb := len(a.DFFs), len(b.DFFs)
	// Variable order: A state bits, B state bits, shared inputs.
	m := bdd.New(na + nb + len(a.PIs))
	fa, ga, err := reach.Build(m, a, 0, na+nb, opt.MaxNodes)
	if err != nil {
		return false, nil, err
	}
	fb, gb, err := reach.Build(m, b, na, na+nb, opt.MaxNodes)
	if err != nil {
		return false, nil, err
	}

	// Miter: any reached product state with differing outputs under any
	// input is a violation, checked on each frontier of the traversal.
	var ce *Counterexample
	miter := func(frontier bdd.Ref) bool {
		for k := range ga {
			bad := m.And(frontier, m.Xor(ga[k], gb[k]))
			if bad == bdd.False {
				continue
			}
			assign, _ := m.AnySat(bad, m.NumVars())
			ce = &Counterexample{StateA: assign[:na], StateB: assign[na : na+nb], Inputs: assign[na+nb:], Output: k}
			return true
		}
		return false
	}
	next := append(fa, fb...)
	ropt := reach.Options{FlushCycles: opt.FlushCycles, MaxNodes: opt.MaxNodes}
	if _, err := reach.Traverse(m, next, na+nb+ra, ropt, miter); err != nil {
		return false, nil, err
	}
	return ce == nil, ce, nil
}
