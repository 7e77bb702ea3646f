package reach_test

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"seqatpg/internal/bench"
	"seqatpg/internal/netlist"
	"seqatpg/internal/predict"
	"seqatpg/internal/reach"
	"seqatpg/internal/verify"
)

var update = flag.Bool("update", false, "rewrite testdata/symbolic_golden.json")

// goldenCircuit pins one reachability run and the density predictor's
// view of the same circuit.
type goldenCircuit struct {
	Circuit      string  `json:"circuit"`
	Flush        int     `json:"flush"`
	ValidStates  float64 `json:"valid_states"`
	Density      float64 `json:"density"`
	Nodes        int     `json:"nodes"`
	PredictKnown bool    `json:"predict_known"`
	PredictValue float64 `json:"predict_value"`
}

// goldenPair pins the equivalence verdict of one original/retimed pair.
type goldenPair struct {
	Pair       string `json:"pair"`
	Equivalent bool   `json:"equivalent"`
}

type symbolicGolden struct {
	Circuits []goldenCircuit `json:"circuits"`
	Pairs    []goldenPair    `json:"pairs"`
}

// shortRetimed is the one retimed circuit kept under -short: it ends
// nearest predict's density node bound, so an extra allocation in the
// symbolic engine would flip its Known first.
const shortRetimed = "s510.jc.sd"

// TestSymbolicGolden pins the symbolic engine's observable behaviour on
// the 32 circuits of the paper's Table 2 against
// testdata/symbolic_golden.json: valid-state count, density, the final
// BDD node count, predict's bounded density, and every pair's
// equivalence verdict. The node count is pinned because predict's
// density bound turns an extra allocation into a changed feature.
// Under -short only the originals and one retimed circuit run.
func TestSymbolicGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/symbolic_golden.json")
	if err != nil && !*update {
		t.Fatal(err)
	}
	var want symbolicGolden
	if !*update {
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	s := bench.NewSuite(bench.QuickBudget())
	var got symbolicGolden
	for _, spec := range bench.PairSpecs() {
		p, err := s.Pair(spec)
		if err != nil {
			t.Fatal(err)
		}
		name := spec.Name()
		got.Circuits = append(got.Circuits, goldenRun(t, name, p.Orig.Circuit, 1))
		if testing.Short() && name != shortRetimed {
			continue
		}
		got.Circuits = append(got.Circuits, goldenRun(t, name+".re", p.Re.Circuit, p.Re.FlushCycles))
		ok, _, err := verify.Equivalent(p.Orig.Circuit, p.Re.Circuit, verify.Options{FlushCycles: p.Re.FlushCycles})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got.Pairs = append(got.Pairs, goldenPair{name, ok})
	}
	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/symbolic_golden.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantCircuits := map[string]goldenCircuit{}
	for _, c := range want.Circuits {
		wantCircuits[c.Circuit] = c
	}
	for _, c := range got.Circuits {
		if w, ok := wantCircuits[c.Circuit]; !ok || c != w {
			t.Errorf("%s:\n got %+v\nwant %+v", c.Circuit, c, w)
		}
	}
	wantPairs := map[string]goldenPair{}
	for _, p := range want.Pairs {
		wantPairs[p.Pair] = p
	}
	for _, p := range got.Pairs {
		if w, ok := wantPairs[p.Pair]; !ok || p != w {
			t.Errorf("pair %s: got %+v, want %+v", p.Pair, p, w)
		}
	}
	if !testing.Short() && (len(got.Circuits) != len(want.Circuits) || len(got.Pairs) != len(want.Pairs)) {
		t.Errorf("%d circuits and %d pairs, golden table has %d and %d",
			len(got.Circuits), len(got.Pairs), len(want.Circuits), len(want.Pairs))
	}
}

func goldenRun(t *testing.T, name string, c *netlist.Circuit, flush int) goldenCircuit {
	t.Helper()
	a, err := reach.Analyze(c, reach.Options{FlushCycles: flush})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	d := predict.CircuitDensity(c, flush, 0)
	return goldenCircuit{name, flush, a.ValidStates, a.Density, reach.NodeCount(a), d.Known, d.Value}
}
