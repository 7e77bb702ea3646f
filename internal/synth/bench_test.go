package synth_test

import (
	"testing"

	"seqatpg/internal/bench"
	"seqatpg/internal/synth"
)

// BenchmarkSynthesizeSuite synthesizes each suite machine under its
// first bench.PairSpecs entry, with the unreachable-state don't-cares
// on as bench.Suite uses them. scf (34 two-level variables) is the one
// that reaches the minimizer's containment tests hardest.
func BenchmarkSynthesizeSuite(b *testing.B) {
	machines := suiteMachines(b)
	seen := map[string]bool{}
	for _, spec := range bench.PairSpecs() {
		if seen[spec.FSM] {
			continue
		}
		seen[spec.FSM] = true
		m := machines[spec.FSM]
		opt := synth.Options{Algorithm: spec.Alg, Script: spec.Script, UseUnreachableDC: true}
		b.Run(spec.FSM, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := synth.Synthesize(m, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
