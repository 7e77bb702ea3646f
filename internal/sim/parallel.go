package sim

import "seqatpg/internal/netlist"

// PVal is a 64-way parallel three-valued word in two-rail encoding:
// bit i of Zero means pattern i is 0, bit i of One means pattern i is 1,
// neither bit set means X. (Both set is illegal.)
type PVal struct {
	Zero, One uint64
}

// PConst returns a word with all 64 patterns at the same binary value.
func PConst(v Val) PVal {
	switch v {
	case V0:
		return PVal{Zero: ^uint64(0)}
	case V1:
		return PVal{One: ^uint64(0)}
	default:
		return PVal{}
	}
}

// Set assigns pattern i's value in the word.
func (p *PVal) Set(i uint, v Val) {
	p.Zero &^= 1 << i
	p.One &^= 1 << i
	switch v {
	case V0:
		p.Zero |= 1 << i
	case V1:
		p.One |= 1 << i
	}
}

// pnot, pand, por, pxor are the two-rail gate evaluations.
func pnot(a PVal) PVal { return PVal{Zero: a.One, One: a.Zero} }

func pand(a, b PVal) PVal {
	return PVal{Zero: a.Zero | b.Zero, One: a.One & b.One}
}

func por(a, b PVal) PVal {
	return PVal{Zero: a.Zero & b.Zero, One: a.One | b.One}
}

func pxor(a, b PVal) PVal {
	known := (a.Zero | a.One) & (b.Zero | b.One)
	ones := (a.One & b.Zero) | (a.Zero & b.One)
	return PVal{Zero: known &^ ones, One: ones}
}

// EvalGateP computes a gate's parallel output from its fanin words.
func EvalGateP(t netlist.GateType, in []PVal) PVal {
	switch t {
	case netlist.Buf, netlist.Output, netlist.DFF:
		return in[0]
	case netlist.Not:
		return pnot(in[0])
	case netlist.And, netlist.Nand:
		acc := PConst(V1)
		for _, v := range in {
			acc = pand(acc, v)
		}
		if t == netlist.Nand {
			return pnot(acc)
		}
		return acc
	case netlist.Or, netlist.Nor:
		acc := PConst(V0)
		for _, v := range in {
			acc = por(acc, v)
		}
		if t == netlist.Nor {
			return pnot(acc)
		}
		return acc
	case netlist.Xor, netlist.Xnor:
		acc := PConst(V0)
		for _, v := range in {
			acc = pxor(acc, v)
		}
		if t == netlist.Xnor {
			return pnot(acc)
		}
		return acc
	case netlist.Const0:
		return PConst(V0)
	case netlist.Const1:
		return PConst(V1)
	default:
		return PVal{} // all X
	}
}
