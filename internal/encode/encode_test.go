package encode

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"seqatpg/internal/fsm"
)

func TestMinBits(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{24, 5}, {27, 5}, {32, 5}, {33, 6}, {47, 6}, {94, 7}, {121, 7},
	}
	for _, c := range cases {
		if got := MinBits(c.n); got != c.want {
			t.Errorf("MinBits(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func genMachine(t *testing.T, states int, seed int64) *fsm.FSM {
	t.Helper()
	m, err := fsm.Generate(fsm.GenSpec{
		Name: "enc", Inputs: 4, Outputs: 4, States: states, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAssignProducesValidEncoding(t *testing.T) {
	m := genMachine(t, 11, 3)
	for _, alg := range []Algorithm{InputDominant, OutputDominant, Combined} {
		enc := Assign(m, alg)
		if enc.Bits != 4 {
			t.Errorf("%v: bits = %d, want 4", alg, enc.Bits)
		}
		if len(enc.Code) != 11 {
			t.Fatalf("%v: %d codes, want 11", alg, len(enc.Code))
		}
		seen := map[uint64]bool{}
		for s, c := range enc.Code {
			if c >= 1<<uint(enc.Bits) {
				t.Errorf("%v: code of state %d out of range: %d", alg, s, c)
			}
			if seen[c] {
				t.Errorf("%v: duplicate code %d", alg, c)
			}
			seen[c] = true
		}
		if enc.Code[m.Reset] != 0 {
			t.Errorf("%v: reset state must get code 0, got %d", alg, enc.Code[m.Reset])
		}
	}
}

func TestAssignDeterministic(t *testing.T) {
	m := genMachine(t, 13, 8)
	a := Assign(m, Combined)
	b := Assign(m, Combined)
	for s := range a.Code {
		if a.Code[s] != b.Code[s] {
			t.Fatalf("non-deterministic assignment at state %d", s)
		}
	}
}

func TestAlgorithmsDiffer(t *testing.T) {
	// On a nontrivial machine the three heuristics should usually give
	// different embeddings; that difference is what creates the paper's
	// per-encoding circuit variants.
	m := genMachine(t, 20, 12)
	ji := Assign(m, InputDominant)
	jo := Assign(m, OutputDominant)
	same := true
	for s := range ji.Code {
		if ji.Code[s] != jo.Code[s] {
			same = false
			break
		}
	}
	if same {
		t.Error("input- and output-dominant assignments are identical; heuristics look inert")
	}
}

func TestAlgorithmString(t *testing.T) {
	if InputDominant.String() != "ji" || OutputDominant.String() != "jo" || Combined.String() != "jc" {
		t.Error("algorithm suffixes must match the paper's circuit naming")
	}
}

func TestAssignSingleState(t *testing.T) {
	m := &fsm.FSM{
		Name: "one", NumInputs: 1, NumOutputs: 1,
		States: []string{"a"}, Reset: 0,
	}
	enc := Assign(m, Combined)
	if enc.Bits != 1 || enc.Code[0] != 0 {
		t.Errorf("single state: %+v", enc)
	}
}

// totalCost is the weighted-Hamming objective the embedding minimizes.
func totalCost(m *fsm.FSM, enc Encoding, alg Algorithm) int {
	// Recompute the affinity weights through the exported Assign surface:
	// the heuristic itself is private, so approximate the objective with
	// the input-dominant notion — common-predecessor pairs.
	cost := 0
	for s := 0; s < m.NumStates(); s++ {
		idxs := m.TransFrom(s)
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				x, y := m.Trans[idxs[a]].To, m.Trans[idxs[b]].To
				cost += hamming(enc.Code[x], enc.Code[y])
			}
		}
	}
	return cost
}

func hamming(a, b uint64) int {
	n := 0
	for x := a ^ b; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// TestAssignBeatsRandomEmbedding: the input-dominant embedding should
// have a lower common-predecessor cost than random assignments do on
// average — the heuristic must actually optimize its objective.
func TestAssignBeatsRandomEmbedding(t *testing.T) {
	m := genMachine(t, 14, 99)
	enc := Assign(m, InputDominant)
	got := totalCost(m, enc, InputDominant)

	rng := rand.New(rand.NewSource(1))
	worse := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		perm := rng.Perm(1 << uint(enc.Bits))[:m.NumStates()]
		codes := make([]uint64, m.NumStates())
		for s := range codes {
			codes[s] = uint64(perm[s])
		}
		if totalCost(m, Encoding{Bits: enc.Bits, Code: codes}, InputDominant) >= got {
			worse++
		}
	}
	if worse < trials*2/3 {
		t.Errorf("embedding beats only %d of %d random assignments", worse, trials)
	}
}

// referenceAssign is Assign with the swap refinement that sums both
// states' costs afresh for every pair, the way the table in refine
// must reproduce exactly.
func referenceAssign(m *fsm.FSM, alg Algorithm) Encoding {
	nbits := MinBits(m.NumStates())
	w := affinity(m, alg)
	code := place(w, m.Reset, nbits)
	n := len(w)
	improve := func() bool {
		improved := false
		for a := 0; a < n; a++ {
			if a == m.Reset {
				continue
			}
			for b := a + 1; b < n; b++ {
				if b == m.Reset {
					continue
				}
				if referenceSwapGain(w, code, a, b) > 0 {
					code[a], code[b] = code[b], code[a]
					improved = true
				}
			}
		}
		return improved
	}
	for pass := 0; pass < 4 && improve(); pass++ {
	}
	return Encoding{Bits: nbits, Code: code}
}

// referenceSwapGain returns the cost reduction achieved by swapping the
// codes of states a and b (positive is better).
func referenceSwapGain(w [][]int, code []uint64, a, b int) int {
	cost := func(s int, c uint64) int {
		total := 0
		for t := range w {
			if t == s || t == a || t == b {
				continue
			}
			if w[s][t] > 0 {
				total += w[s][t] * bits.OnesCount64(c^code[t])
			}
		}
		return total
	}
	before := cost(a, code[a]) + cost(b, code[b])
	after := cost(a, code[b]) + cost(b, code[a])
	return before - after
}

// TestAssignMatchesReference pins the swap table: on the six suite
// machines and on seeded random ones, under every heuristic, Assign
// must return the reference's encoding code for code.
func TestAssignMatchesReference(t *testing.T) {
	var machines []*fsm.FSM
	for _, b := range fsm.Suite() {
		raw, err := fsm.Generate(b.Spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := fsm.Minimize(raw)
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, m)
	}
	for seed := int64(0); seed < 12; seed++ {
		machines = append(machines, genMachine(t, 3+int(seed)*5, seed))
	}
	for _, m := range machines {
		for _, alg := range []Algorithm{InputDominant, OutputDominant, Combined} {
			got, want := Assign(m, alg), referenceAssign(m, alg)
			if got.Bits != want.Bits || !slices.Equal(got.Code, want.Code) {
				t.Errorf("%s (%d states) %v:\n got %+v\nwant %+v", m.Name, m.NumStates(), alg, got, want)
			}
		}
	}
}
