package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"seqatpg/internal/encode"
	"seqatpg/internal/fault"
	"seqatpg/internal/fsm"
	"seqatpg/internal/netlist"
	"seqatpg/internal/predict"
	"seqatpg/internal/retime"
	"seqatpg/internal/synth"
)

// suitePair synthesizes the paper's dk16.ji.sd circuit and its
// two-round backward retiming.
func suitePair(t *testing.T) (orig, re *netlist.Circuit, flush int) {
	t.Helper()
	for _, b := range fsm.Suite() {
		if b.Spec.Name != "dk16" {
			continue
		}
		raw, err := fsm.Generate(b.Spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := fsm.Minimize(raw)
		if err != nil {
			t.Fatal(err)
		}
		r, err := synth.Synthesize(m, synth.Options{Algorithm: encode.InputDominant, Script: synth.Delay, UseUnreachableDC: true})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := retime.Backward(r.Circuit, netlist.DefaultLibrary(), 2)
		if err != nil {
			t.Fatal(err)
		}
		return r.Circuit, rt.Circuit, rt.FlushCycles
	}
	t.Fatal("dk16 missing from the benchmark suite")
	return nil, nil, 0
}

// structuralScores are the per-fault scores the job service balances
// shards by: structural features, default predictor.
func structuralScores(t *testing.T, c *netlist.Circuit, faults []fault.Fault) []float64 {
	t.Helper()
	fs, err := predict.Extract(c, faults, predict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, len(faults))
	for i := range faults {
		scores[i] = predict.Default().Score(fs, i)
	}
	return scores
}

// buildPlans runs every builder over one circuit the way the golden
// table was recorded: the config carries features the normalization
// must strip, so the fingerprints pin that too.
func buildPlans(t *testing.T, c *netlist.Circuit, flush int, faults []fault.Fault, shards []int) map[string]Plan {
	t.Helper()
	cfg := Config{Engine: engineCfg(), Retries: 2}
	cfg.Engine.FaultBudget = 20_000
	cfg.Engine.FlushCycles = flush
	cfg.Engine.RandomSequences, cfg.Engine.RandomLength = 4, 8
	cfg.Engine.Learning = true

	plans := map[string]Plan{}
	scores := structuralScores(t, c, faults)
	for _, n := range shards {
		plans[fmt.Sprintf("roundrobin/%d", n)] = PlanRoundRobin(cfg, len(faults), n)
		plans[fmt.Sprintf("balanced/%d", n)] = PlanBalanced(cfg, scores, n)
	}
	for _, rb := range []bool{false, true} {
		plan, err := PlanScheduled(c, faults, cfg, SchedConfig{WithDensity: true, RungBudgets: rb})
		if err != nil {
			t.Fatal(err)
		}
		plans[fmt.Sprintf("scheduled/rungs=%v", rb)] = plan
	}
	return plans
}

type goldenPartition struct {
	Circuit     string `json:"circuit"`
	Builder     string `json:"builder"`
	Suffix      string `json:"suffix"`
	Faults      int    `json:"faults"`
	Fingerprint string `json:"fingerprint"`
}

var updatePlan = flag.Bool("update-plan", false, "rewrite testdata/plan_golden.json")

// TestPlanGoldenFingerprints: every partition's checkpoint suffix and
// fingerprint equal the ones recorded in testdata/plan_golden.json
// under the engine-v1 config encoding, so a checkpoint written by an
// older build still resumes. A change here strands every checkpoint,
// cached result and fabric journal on disk; re-record (-update-plan)
// only on a deliberate fingerprint change.
func TestPlanGoldenFingerprints(t *testing.T) {
	orig, re, flush := suitePair(t)
	var got []goldenPartition
	for _, cc := range []struct {
		name  string
		c     *netlist.Circuit
		flush int
	}{{"dk16.ji.sd", orig, 1}, {"dk16.ji.sd.re", re, flush}} {
		faults := fault.CollapsedUniverse(cc.c)
		plans := buildPlans(t, cc.c, cc.flush, faults, []int{1, 2, 3, 4})
		for _, builder := range []string{"roundrobin/1", "roundrobin/2", "roundrobin/4", "balanced/2", "balanced/3", "scheduled/rungs=false", "scheduled/rungs=true"} {
			for _, part := range plans[builder] {
				got = append(got, goldenPartition{cc.name, builder, part.Suffix, len(part.Indices),
					Fingerprint(cc.c, part.Config, part.Sublist(faults))})
			}
		}
	}
	if *updatePlan {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/plan_golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("testdata/plan_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenPartition
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d partitions, golden table has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("partition %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestPlanPartitionsCover: every builder's partitions are disjoint and
// cover 0..n-1 exactly — the property MergeShardResults relies on —
// for empty, single-fault, small and full suite fault lists, and shard
// counts up to one past the fault count.
func TestPlanPartitionsCover(t *testing.T) {
	_, re, flush := suitePair(t)
	universe := fault.CollapsedUniverse(re)
	for _, n := range []int{0, 1, 12, len(universe)} {
		// Every count for the short lists; the full list samples the
		// small counts and the ones at and past the fault count.
		var shards []int
		for k := 1; k <= n+1; k++ {
			if n <= 12 || k <= 7 || k >= n {
				shards = append(shards, k)
			}
		}
		for name, plan := range buildPlans(t, re, flush, universe[:n], shards) {
			seen := make([]int, n)
			for _, part := range plan {
				for _, i := range part.Indices {
					if i < 0 || i >= n {
						t.Fatalf("n=%d %s: index %d out of range", n, name, i)
					}
					seen[i]++
				}
			}
			for i, cnt := range seen {
				if cnt != 1 {
					t.Fatalf("n=%d %s: fault %d appears in %d partitions", n, name, i, cnt)
				}
			}
			if len(plan) == 0 {
				t.Fatalf("n=%d %s: empty plan", n, name)
			}
		}
	}
}

// TestExecuteReportsRootCause drives Execute with a stub runner: one
// partition fails with a sentinel error while its siblings block until
// the executor cancels them and then return the context error, as a
// remote shard does. Whichever partition fails, the reported error is
// the sentinel, named by that partition, never a sibling's
// cancellation; empty partitions never reach the runner.
func TestExecuteReportsRootCause(t *testing.T) {
	sentinel := errors.New("stub partition failure")
	plan := Plan{
		{Indices: []int{0, 3}, Name: "shard 0/4"},
		{Name: "shard 1/4"},
		{Indices: []int{1}, Name: "shard 2/4"},
		{Indices: []int{2}, Name: "shard 3/4"},
	}
	for _, failing := range []int{0, 2, 3} {
		var mu sync.Mutex
		calls := map[int]int{}
		run := func(ctx context.Context, k int, part Partition) (*Result, error) {
			mu.Lock()
			calls[k]++
			mu.Unlock()
			if len(part.Indices) == 0 {
				t.Errorf("runner called for empty partition %d", k)
			}
			if k == failing {
				return nil, sentinel
			}
			<-ctx.Done()
			return nil, ctx.Err()
		}
		_, err := Execute(context.Background(), nil, make([]fault.Fault, 4), plan, run)
		if !errors.Is(err, sentinel) {
			t.Fatalf("partition %d failed: Execute reported %v, want the sentinel", failing, err)
		}
		if !strings.Contains(err.Error(), plan[failing].Name) {
			t.Fatalf("error %q does not name the failing partition %q", err, plan[failing].Name)
		}
		if want := map[int]int{0: 1, 2: 1, 3: 1}; !reflect.DeepEqual(calls, want) {
			t.Fatalf("runner calls per partition %v, want %v", calls, want)
		}
	}
}
