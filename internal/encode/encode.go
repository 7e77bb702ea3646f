// Package encode implements jedi-style state assignment: embedding the
// states of an FSM into the Boolean hypercube using the minimum number
// of bits, guided by a state-affinity graph. Three affinity heuristics
// are provided, mirroring the jedi options used in the reproduced paper:
// input-dominant (.ji), output-dominant (.jo), and combined (.jc).
package encode

import (
	"fmt"
	"math/bits"
	"sort"

	"seqatpg/internal/fsm"
)

// Algorithm selects the affinity heuristic used to weight state pairs.
type Algorithm int

// The three jedi-like state assignment heuristics.
const (
	// InputDominant weights state pairs that share predecessor states:
	// next states of a common source should receive adjacent codes so
	// the next-state logic shares cubes.
	InputDominant Algorithm = iota
	// OutputDominant weights state pairs whose outgoing transitions
	// produce similar outputs, so the output logic shares cubes.
	OutputDominant
	// Combined sums the input- and output-dominant weights.
	Combined
)

// String returns the suffix used in circuit names (.ji/.jo/.jc).
func (a Algorithm) String() string {
	switch a {
	case InputDominant:
		return "ji"
	case OutputDominant:
		return "jo"
	case Combined:
		return "jc"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Encoding is a state assignment: Code[s] is the Bits-wide binary code
// of state s.
type Encoding struct {
	Bits int
	Code []uint64
}

// MinBits returns the minimum number of state bits for n states.
func MinBits(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// Assign computes a minimum-bit state assignment for m using the given
// affinity heuristic. The embedding is a deterministic greedy placement
// followed by pairwise-swap refinement.
func Assign(m *fsm.FSM, alg Algorithm) Encoding {
	nbits := MinBits(m.NumStates())
	w := affinity(m, alg)
	code := place(w, m.Reset, nbits)
	refine(w, code, m.Reset, nbits)
	return Encoding{Bits: nbits, Code: code}
}

// place is the greedy placement: states in order of total affinity
// (descending) each take the free code nearest, by weighted Hamming
// distance, to the states already placed. The reset state is placed
// first at code 0 so the explicit reset line of the synthesized circuit
// drives an all-zero code.
func place(w [][]int, reset, nbits int) []uint64 {
	n := len(w)
	totals := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			totals[i] += w[i][j]
		}
	}
	order := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if s != reset {
			order = append(order, s)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return totals[order[a]] > totals[order[b]] })
	order = append([]int{reset}, order...)

	code := make([]uint64, n)
	assigned := make([]bool, n)
	usedCode := make([]bool, 1<<uint(nbits))
	for k, s := range order {
		if k == 0 {
			code[s] = 0
			usedCode[0] = true
			assigned[s] = true
			continue
		}
		bestCode, bestCost := -1, int(^uint(0)>>1)
		for c := 0; c < len(usedCode); c++ {
			if usedCode[c] {
				continue
			}
			cost := 0
			for t := 0; t < n; t++ {
				if assigned[t] && w[s][t] > 0 {
					cost += w[s][t] * bits.OnesCount64(uint64(c)^code[t])
				}
			}
			if cost < bestCost {
				bestCode, bestCost = c, cost
			}
		}
		code[s] = uint64(bestCode)
		usedCode[bestCode] = true
		assigned[s] = true
	}
	return code
}

// refine improves code by pairwise swaps, reset pinned at code 0, in
// up to four passes over the pairs. cost[s][c] is the weighted Hamming
// distance from code c to every state's current code,
// Σ_t w[s][t]·|c^code[t]|, so a swap's gain is a few table reads
// instead of two O(n) sums, and an accepted swap updates the table in
// O(n·2^nbits). The arithmetic is exact, so the swaps taken are those
// of summing the costs afresh for every pair. A pass that accepts k
// swaps costs O(n² + k·n·2^nbits): as the per-pair sums' O(n³) while k
// is O(n), and up to O(n⁴) were a pass to accept Θ(n²) swaps.
func refine(w [][]int, code []uint64, reset, nbits int) {
	n := len(w)
	cost := make([][]int, n)
	for s := range cost {
		cost[s] = make([]int, 1<<uint(nbits))
		for c := range cost[s] {
			for t := 0; t < n; t++ {
				cost[s][c] += w[s][t] * bits.OnesCount64(uint64(c)^code[t])
			}
		}
	}
	improve := func() bool {
		improved := false
		for a := 0; a < n; a++ {
			if a == reset {
				continue
			}
			for b := a + 1; b < n; b++ {
				if b == reset {
					continue
				}
				ca, cb := code[a], code[b]
				// cost[a][cb] still sees b at cb, so it lacks the a-b
				// term w[a][b]·|ca^cb| that the swap keeps, as does
				// cost[b][ca]; the middle term puts both back.
				gain := cost[a][ca] + cost[b][cb] - 2*w[a][b]*bits.OnesCount64(ca^cb) -
					cost[a][cb] - cost[b][ca]
				if gain <= 0 {
					continue
				}
				code[a], code[b] = cb, ca
				improved = true
				// Moving a from ca to cb and b from cb to ca shifts every
				// cost[s][c] by (w[s][a]-w[s][b])·(|c^cb|-|c^ca|).
				for s := range cost {
					dw := w[s][a] - w[s][b]
					if dw == 0 {
						continue
					}
					for c := range cost[s] {
						cost[s][c] += dw * (bits.OnesCount64(uint64(c)^cb) - bits.OnesCount64(uint64(c)^ca))
					}
				}
			}
		}
		return improved
	}
	for pass := 0; pass < 4 && improve(); pass++ {
	}
}

// affinity builds the symmetric state-pair weight matrix for the given
// heuristic.
func affinity(m *fsm.FSM, alg Algorithm) [][]int {
	n := m.NumStates()
	w := make([][]int, n)
	for i := range w {
		w[i] = make([]int, n)
	}
	add := func(a, b, inc int) {
		if a == b {
			return
		}
		w[a][b] += inc
		w[b][a] += inc
	}
	if alg == InputDominant || alg == Combined {
		// Next states of a common source state attract each other.
		for s := 0; s < n; s++ {
			idxs := m.TransFrom(s)
			for x := 0; x < len(idxs); x++ {
				for y := x + 1; y < len(idxs); y++ {
					add(m.Trans[idxs[x]].To, m.Trans[idxs[y]].To, 1)
				}
			}
		}
	}
	if alg == OutputDominant || alg == Combined {
		// States whose outgoing transitions agree on many output bits
		// attract each other, weighted by the agreement count.
		for a := 0; a < n; a++ {
			ta := m.TransFrom(a)
			for b := a + 1; b < n; b++ {
				tb := m.TransFrom(b)
				agree := 0
				for _, ia := range ta {
					for _, ib := range tb {
						oa, ob := m.Trans[ia].Output, m.Trans[ib].Output
						same := 0
						for k := range oa {
							if oa[k] == ob[k] {
								same++
							}
						}
						// Only strong agreement counts, otherwise the
						// matrix saturates and conveys no preference.
						if same*2 > len(oa) {
							agree++
						}
					}
				}
				if agree > 0 {
					add(a, b, agree)
				}
			}
		}
	}
	return w
}
