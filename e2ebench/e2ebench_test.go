package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the metric and
// workload tables the command reports from.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	same := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		want := map[string]string{}
		for _, d := range code {
			want[d.name] = d.unit
		}
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(file), len(code))
		}
		for _, m := range file {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json metric %s [%s], the command reports unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestWorkloadsTiny runs every workload at self-test size, untraced and
// traced, and checks the result line: correct, and every metric of
// BENCHMARK.json present with its unit (end-to-end ones nonzero).
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the circuit suite")
	}
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 5, seconds: 0.01, trace: traced, tiny: true}
			rep, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			line, err := resultLine(rep, traced)
			if err != nil {
				t.Fatal(err)
			}
			var res result
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestMemFS checks the filesystem semantics the job store and the
// cache rely on: missing parents, directory renames (cache staging),
// non-empty removes, listings and globs.
func TestMemFS(t *testing.T) {
	m := newMemFS()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.MkdirAll("/c/tmp-x", 0o755))
	must(m.WriteFile("/c/tmp-x/f", []byte("1"), 0o644))
	if err := m.WriteFile("/d/f", nil, 0o644); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("write without a parent: %v, want ErrNotExist", err)
	}
	if err := m.Remove("/c/tmp-x"); err == nil {
		t.Error("removed a non-empty directory")
	}
	must(m.Rename("/c/tmp-x", "/c/ent-x"))
	if data, err := m.ReadFile("/c/ent-x/f"); err != nil || string(data) != "1" {
		t.Errorf("renamed file reads %q, %v", data, err)
	}
	if _, err := m.ReadFile("/c/tmp-x/f"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("old path after rename: %v, want ErrNotExist", err)
	}
	ents, err := m.ReadDir("/c")
	if err != nil || len(ents) != 1 || ents[0].Name() != "ent-x" || !ents[0].IsDir() {
		t.Errorf("ReadDir(/c) = %v, %v", ents, err)
	}
	if got, err := m.Glob("/c/ent-*/f"); err != nil || len(got) != 1 || got[0] != "/c/ent-x/f" {
		t.Errorf("Glob = %v, %v", got, err)
	}
	must(m.Sync("/c/ent-x/f"))
	must(m.Remove("/c/ent-x/f"))
	must(m.Remove("/c/ent-x"))
	if err := m.SyncDir("/c/ent-x"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("sync of a removed directory: %v, want ErrNotExist", err)
	}
}

var (
	suiteOnce sync.Once
	suite     []circuit
	suiteErr  error
)

func testSuite(t *testing.T) []circuit {
	t.Helper()
	suiteOnce.Do(func() { suite, _, suiteErr = buildSuite(nil) })
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suite
}

// TestCheckerCatchesDroppedTests tampers with a campaign result: with
// its tests dropped, every Detected verdict must count as a failure.
func TestCheckerCatchesDroppedTests(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the circuit suite")
	}
	inputs := atpgInputs(testSuite(t)[:1], false, atpgSize{faults: 12, scale: 200, cap: 0}, 1)
	rec, err := runCampaign(&inputs[0], nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := rec.res
	if res.Stats.Detected == 0 {
		t.Fatal("campaign detected nothing; the tamper check needs a Detected verdict")
	}
	bad, err := checkDetected(inputs[0].circ.c, inputs[0].faults, res.Outcomes, res.Tests)
	if err != nil || bad != 0 {
		t.Fatalf("untampered result: %d unconfirmed verdicts, err %v", bad, err)
	}
	bad, err = checkDetected(inputs[0].circ.c, inputs[0].faults, res.Outcomes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad != res.Stats.Detected {
		t.Errorf("tests dropped: checker counted %d failures, want %d (every Detected verdict)", bad, res.Stats.Detected)
	}
}

// TestCheckerCatchesCorruptHit tampers with a cache hit's artifact on
// disk: the round check must count the job as failed.
func TestCheckerCatchesCorruptHit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the circuit suite")
	}
	in, err := serveInputs(testSuite(t), tinyMix, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := runServeRound(in, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkServe(rd, in); bad != 0 {
		t.Fatalf("untampered round: %d failed jobs", bad)
	}
	var hit *jobRec
	for _, j := range rd.jobs {
		if j.hit() {
			hit = j
			break
		}
	}
	if hit == nil {
		t.Fatal("round had no cache hit to tamper with")
	}
	path := filepath.Join(jobsDir, hit.id, "vectors.vec")
	data, err := rd.fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.fs.WriteFile(path, append(data, "0\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if bad := checkServe(rd, in); bad != 1 {
		t.Errorf("corrupted hit artifact: checker counted %d failed jobs, want 1", bad)
	}
}
