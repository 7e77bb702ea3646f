package atpg

import (
	"testing"

	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// TestValueCodes pins the window's one-byte value codes and every table
// built over them against V5, sim and evalGate5, exhaustively: the nine
// rail pairs one by one, and every tuple of one to three pins through
// each multi-input gate kind, folded the way evalComposite folds them.
func TestValueCodes(t *testing.T) {
	rails := []sim.Val{sim.V0, sim.V1, sim.VX}
	var all []V5
	for _, g := range rails {
		for _, f := range rails {
			all = append(all, V5{g, f})
		}
	}
	for _, v := range all {
		c := codeOf(v)
		if decode[c] != v {
			t.Errorf("%v: code %#x decodes to %v", v, c, decode[c])
		}
		if got := c&codeD != 0; got != v.isD() {
			t.Errorf("%v: D bit %v, isD %v", v, got, v.isD())
		}
		if got := c&codeX != 0; got != !v.known() {
			t.Errorf("%v: unknown bits %v, known %v", v, got, v.known())
		}
		if got, want := notCode[c], codeOf(V5{sim.NotV(v.G), sim.NotV(v.F)}); got != want {
			t.Errorf("%v: Not gives %v, want %v", v, decode[got], decode[want])
		}
		for _, sa := range []sim.Val{sim.V0, sim.V1} {
			want := v
			want.F = sa
			if got := injCode[sa][c]; got != codeOf(want) {
				t.Errorf("%v stuck-at %v: injection gives %v, want %v", v, sa, decode[got], want)
			}
		}
	}
	for _, v := range rails {
		if codeBoth(v) != codeOf(vBoth(v)) {
			t.Errorf("codeBoth(%v) = %#x, want %#x", v, codeBoth(v), codeOf(vBoth(v)))
		}
	}

	var tuples [][]V5
	for _, a := range all {
		tuples = append(tuples, []V5{a})
		for _, b := range all {
			tuples = append(tuples, []V5{a, b})
			for _, d := range all {
				tuples = append(tuples, []V5{a, b, d})
			}
		}
	}
	for kind := netlist.And; kind <= netlist.Xnor; kind++ {
		for _, in := range tuples {
			var m, x uint8
			sawD := false
			for _, v := range in {
				m |= codeOf(v)
				x ^= codeOf(v)
				sawD = sawD || v.isD()
			}
			idx := m & 63
			if kind >= netlist.Xor {
				idx = m&codeX | x&codeOne
			}
			got, want := foldTab[kind-netlist.And][idx], codeOf(evalGate5(kind, in))
			if got != want {
				t.Fatalf("%v%v: fold gives %v, evalGate5 %v", kind, in, decode[got], decode[want])
			}
			if m&codeD != 0 != sawD {
				t.Fatalf("%v%v: D visibility %v, want %v", kind, in, m&codeD != 0, sawD)
			}
		}
	}
}
