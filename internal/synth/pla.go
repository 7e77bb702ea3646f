package synth

import (
	"fmt"

	"seqatpg/internal/logic"
	"seqatpg/internal/netlist"
)

// LowerPLA synthesizes a combinational netlist from a multi-output PLA:
// per-output espresso-style minimization against the PLA's per-output
// don't-care sets, then multi-level lowering under the chosen script
// with structural sharing across outputs. The circuit's PIs follow the
// PLA input order; POs follow the output order. No reset line is added
// (the result is purely combinational).
func LowerPLA(p *logic.PLA, name string, script Script) (*netlist.Circuit, error) {
	if p.NumInputs <= 0 || p.NumOutputs <= 0 {
		return nil, fmt.Errorf("synth: PLA needs at least one input and output")
	}
	b := &builder{
		c:      netlist.New(name),
		nIn:    p.NumInputs,
		invOf:  map[int]int{},
		strash: map[strashKey]int{},
	}
	for i := 0; i < p.NumInputs; i++ {
		b.varGate = append(b.varGate, b.c.AddGate(netlist.Input, fmt.Sprintf("in%d", i)))
	}
	for j := 0; j < p.NumOutputs; j++ {
		f := logic.Minimize(p.OnSet(j), p.DCSet(j))
		id := b.lowerCover(f, script)
		b.c.AddGate(netlist.Output, fmt.Sprintf("out%d", j), id)
	}
	if err := b.c.Validate(); err != nil {
		return nil, fmt.Errorf("synth: LowerPLA produced an invalid circuit: %w", err)
	}
	return b.c, nil
}
