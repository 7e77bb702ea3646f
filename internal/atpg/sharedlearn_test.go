package atpg

import (
	"reflect"
	"testing"
)

// runOutcomes runs one engine configuration over a circuit and returns
// the engine (for store inspection) and its result.
func runOutcomes(t *testing.T, states int, seed int64, mutate func(*Config)) (*Engine, *Result) {
	t.Helper()
	c := synthC(t, states, seed)
	cfg := defaultCfg()
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e, res
}

// TestSharedLearningVerdictInvariance: the justification cache — per
// fault, shared across faults, or shared with an aggressively tiny
// eviction cap — saves effort but must never change a fault's verdict
// under generous budgets. Every configuration must produce the exact
// same outcome for every fault.
func TestSharedLearningVerdictInvariance(t *testing.T) {
	type variant struct {
		name   string
		mutate func(*Config)
	}
	variants := []variant{
		{"learning", func(c *Config) { c.Learning = true }},
		{"shared", func(c *Config) { c.Learning = true; c.SharedLearning = true }},
		{"shared-tiny-cap", func(c *Config) { c.Learning = true; c.SharedLearning = true; c.LearnCap = 2 }},
	}
	for _, seed := range []int64{5, 9} {
		_, base := runOutcomes(t, 7, seed, nil)
		for _, v := range variants {
			_, res := runOutcomes(t, 7, seed, v.mutate)
			if !reflect.DeepEqual(res.Outcomes, base.Outcomes) {
				for i := range res.Outcomes {
					if res.Outcomes[i] != base.Outcomes[i] {
						t.Errorf("seed %d %s: fault %d verdict %v, baseline %v",
							seed, v.name, i, res.Outcomes[i], base.Outcomes[i])
					}
				}
			}
		}
	}
}

// TestObliviousSimByteIdentical: oblivious verification mode re-derives
// every window simulation with an uncharged full sweep on top of the
// charged incremental pass, so every observable — outcomes, tests,
// effort, backtracks, learning counters — must be byte-identical to
// plain incremental mode. This is the charge-identity property the
// incremental rewrite is pinned by.
func TestObliviousSimByteIdentical(t *testing.T) {
	c := synthC(t, 7, 5)
	run := func(oblivious bool) *Result {
		cfg := defaultCfg()
		cfg.Learning = true
		cfg.SharedLearning = true
		e := mustEngine(t, c, cfg)
		e.oblivious = oblivious
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inc, obl := run(false), run(true)
	if !reflect.DeepEqual(inc.Outcomes, obl.Outcomes) {
		t.Error("oblivious mode changed fault verdicts")
	}
	if !reflect.DeepEqual(inc.Tests, obl.Tests) {
		t.Error("oblivious mode changed the generated test set")
	}
	is, os := inc.Stats, obl.Stats
	if is.Effort != os.Effort {
		t.Errorf("oblivious mode effort %d, incremental %d", os.Effort, is.Effort)
	}
	if is.Backtracks != os.Backtracks {
		t.Errorf("oblivious mode backtracks %d, incremental %d", os.Backtracks, is.Backtracks)
	}
	if is.LearnHits != os.LearnHits || is.LearnPrunes != os.LearnPrunes {
		t.Errorf("oblivious mode learning counters (%d,%d), incremental (%d,%d)",
			os.LearnHits, os.LearnPrunes, is.LearnHits, is.LearnPrunes)
	}
	if is.Detected != os.Detected || is.Redundant != os.Redundant || is.Aborted != os.Aborted {
		t.Error("oblivious mode changed outcome counts")
	}
}

// TestSharedLearningCounters: the shared cache can only add reuse
// opportunities on top of per-fault learning, so its hit+prune total
// must not regress, and the run must still reach the same coverage bar
// as the plain learning engine.
func TestSharedLearningCounters(t *testing.T) {
	_, plain := runOutcomes(t, 7, 5, func(c *Config) { c.Learning = true })
	_, shared := runOutcomes(t, 7, 5, func(c *Config) { c.Learning = true; c.SharedLearning = true })
	pn := plain.Stats.LearnHits + plain.Stats.LearnPrunes
	sn := shared.Stats.LearnHits + shared.Stats.LearnPrunes
	t.Logf("plain hits+prunes=%d effort=%d; shared hits+prunes=%d effort=%d",
		pn, plain.Stats.Effort, sn, shared.Stats.Effort)
	if sn < pn {
		t.Errorf("shared cache reuse %d below per-fault learning's %d", sn, pn)
	}
	if shared.Stats.FE() < 95 {
		t.Errorf("shared learning FE %.1f%% too low", shared.Stats.FE())
	}
}

// TestLearnCapBoundsStores: with a tiny cap every learning store must
// actually stay bounded after the run (eviction happens at fault
// boundaries, so the post-run size is the post-eviction size). Each
// variant names the stores an uncapped run must fill past the cap, so
// every store's eviction is really exercised: the shared variant fills
// the achieved and failed-cube stores, the conflict-driven one the
// shared lemma store. The latter runs on a larger machine with a cap of
// 4, because per-search blocking cubes obey the same cap and a cap of 2
// starves lemma publication.
func TestLearnCapBoundsStores(t *testing.T) {
	shared := func(c *Config) { c.Learning = true; c.SharedLearning = true }
	cdcl := func(c *Config) { shared(c); c.ConflictLearning = true }
	sizes := func(e *Engine) map[string]int {
		return map[string]int{
			"achieved":    len(e.achieved.order),
			"failed-cube": len(e.failedCubes.order),
			"lemma":       len(e.lemmas.order),
		}
	}
	for _, tc := range []struct {
		name     string
		states   int
		seed     int64
		mutate   func(*Config)
		limit    int
		overfill []string // stores an uncapped run must fill past limit
	}{
		{"shared", 7, 5, shared, 2, []string{"achieved", "failed-cube"}},
		{"cdcl", 10, 2, cdcl, 4, []string{"lemma"}},
	} {
		e, _ := runOutcomes(t, tc.states, tc.seed, tc.mutate)
		for _, store := range tc.overfill {
			if n := sizes(e)[store]; n <= tc.limit {
				t.Fatalf("%s: uncapped run stored %d %s entries, want more than %d", tc.name, n, store, tc.limit)
			}
		}
		e, res := runOutcomes(t, tc.states, tc.seed, func(c *Config) { tc.mutate(c); c.LearnCap = tc.limit })
		if res.Stats.Detected == 0 {
			t.Fatalf("%s: no faults detected", tc.name)
		}
		checkCap(t, tc.name+" achieved", &e.achieved, tc.limit)
		checkCap(t, tc.name+" failed-cube", &e.failedCubes, tc.limit)
		checkCap(t, tc.name+" lemma", &e.lemmas, tc.limit)
	}
}

func checkCap[K comparable, V any](t *testing.T, store string, j *journal[K, V], limit int) {
	t.Helper()
	if len(j.order) > limit {
		t.Errorf("%s store holds %d entries, cap is %d", store, len(j.order), limit)
	}
	if len(j.m) != len(j.order) {
		t.Errorf("%s store map holds %d entries, its order %d", store, len(j.m), len(j.order))
	}
}

// TestSharedLearningRequiresLearning: SharedLearning without the base
// Learning flag is a configuration error, not a silent no-op.
func TestSharedLearningRequiresLearning(t *testing.T) {
	c := synthC(t, 7, 5)
	cfg := defaultCfg()
	cfg.SharedLearning = true
	if _, err := New(c, cfg); err == nil {
		t.Error("SharedLearning without Learning accepted")
	}
	cfg = defaultCfg()
	cfg.LearnCap = -1
	if _, err := New(c, cfg); err == nil {
		t.Error("negative LearnCap accepted")
	}
}
