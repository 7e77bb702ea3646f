package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"seqatpg/internal/rescache"
)

// readJobFile decodes a job's submission record.
func readJobFile(t *testing.T, dir, id string) jobFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, id, "job.json"))
	if err != nil {
		t.Fatal(err)
	}
	var jf jobFile
	if err := json.Unmarshal(data, &jf); err != nil {
		t.Fatal(err)
	}
	return jf
}

// sameRecord compares two submission records on everything but the
// per-job id and creation time.
func sameRecord(t *testing.T, what string, a, b jobFile) {
	t.Helper()
	a.ID, a.Created, b.ID, b.Created = "", time.Time{}, "", time.Time{}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: job.json differs:\n%+v\n%+v", what, a, b)
	}
}

// submitDone submits a spec and waits for every job on the server to
// finish.
func submitDone(t *testing.T, srv *Server, spec Spec) string {
	t.Helper()
	id, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJobs(t, srv, 2*time.Minute, func(st JobStatus) bool { return st.State == Done })
	return id
}

// TestSpecMemoHitMatchesFreshServer: a memo-hit submission writes the
// same job record (digest and cost prediction) and the same artifacts
// as the same spec on a fresh server — through the result cache, and
// through a lazily prepared cold run when there is no cache.
func TestSpecMemoHitMatchesFreshServer(t *testing.T) {
	spec := Spec{Name: "memo", Netlist: benchText(t, 6, 11), MaxFaults: 20, FaultBudget: 200_000, Retries: 1}

	dir := t.TempDir()
	cache := openCache(t, -1)
	srv, err := New(dir, Options{Workers: 1, CheckpointEvery: time.Millisecond, Cache: cache, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	cold := submitDone(t, srv, spec)
	waitCache(t, cache, "1 stored entry", func(st rescache.Stats) bool { return st.Stored == 1 })
	hit := submitDone(t, srv, spec)
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("cache stats %+v, want the repeat to hit", st)
	}

	freshDir := t.TempDir()
	fresh, err := New(freshDir, Options{Workers: 1, CheckpointEvery: time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close(context.Background())
	first := submitDone(t, fresh, spec)
	lazy := submitDone(t, fresh, spec) // memo hit, no cache: prepared in runJob

	want := readJobFile(t, freshDir, first)
	if want.Digest == "" || want.CostEstimate <= 0 || want.MaxFaultCost <= 0 {
		t.Fatalf("fresh record %+v lacks a digest or cost prediction", want)
	}
	sameRecord(t, "cold vs fresh", readJobFile(t, dir, cold), want)
	sameRecord(t, "cache hit vs fresh", readJobFile(t, dir, hit), want)
	sameRecord(t, "lazy cold run vs fresh", readJobFile(t, freshDir, lazy), want)

	ref, lazyArts := readArtifacts(t, freshDir, first), readArtifacts(t, freshDir, lazy)
	coldArts, hitArts := readArtifacts(t, dir, cold), readArtifacts(t, dir, hit)
	for _, name := range []string{"result.json", "vectors.vec", "terminal.json"} {
		if !bytes.Equal(coldArts[name], hitArts[name]) {
			t.Errorf("%s: cache hit differs from the cold run that stored it", name)
		}
	}
	// terminal.json carries each cold run's own finish time.
	for _, name := range []string{"result.json", "vectors.vec"} {
		if !bytes.Equal(hitArts[name], ref[name]) {
			t.Errorf("%s: memo-hit job differs from a fresh server's", name)
		}
		if !bytes.Equal(lazyArts[name], ref[name]) {
			t.Errorf("%s: lazily prepared cold run differs from the first", name)
		}
	}
}

// TestSpecMemoNeverStoresFailures: an invalid spec is rejected with the
// same 4xx on every resubmission, because failed preparations are never
// memoized.
func TestSpecMemoNeverStoresFailures(t *testing.T) {
	srv, base := startHTTP(t, Options{Workers: 1})
	body := `{"netlist":` + strconv.Quote(benchText(t, 5, 3)) + `,"retries":` + strconv.Itoa(MaxRetries+1) + `}`
	var first string
	for i := 0; i < 3; i++ {
		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submission %d: status %d (%s), want 400", i, resp.StatusCode, msg)
		}
		if i == 0 {
			first = string(msg)
		} else if string(msg) != first {
			t.Errorf("submission %d: body %s, want %s", i, msg, first)
		}
	}
	if n := srv.testPrepares.Load(); n != 3 {
		t.Errorf("%d Prepare calls for 3 invalid submissions, want 3", n)
	}
	srv.memo.mu.Lock()
	n := len(srv.memo.facts)
	srv.memo.mu.Unlock()
	if n != 0 {
		t.Errorf("memo holds %d entries after only failed submissions", n)
	}
	if jobs := srv.List(); len(jobs) != 0 {
		t.Errorf("invalid submissions persisted %d job(s)", len(jobs))
	}
}

// perturb sets v to a different value of its type. A field of a kind it
// does not know fails the test, so a new Spec field cannot slip past
// the key check below unexamined.
func perturb(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Slice:
		v.SetBytes(append(v.Bytes(), ' '))
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		} else {
			v.SetZero()
		}
	default:
		t.Fatalf("field %s: no perturbation for kind %s", name, v.Kind())
	}
}

// TestSpecMemoKeyCoversEveryField perturbs each Spec field in turn (and
// each field of the shard selector) and requires the memo key to
// change, so no field — present or future — can make two different
// specs alias one memo entry. Checkpoint-seeded specs are the one
// exception: they are never memoized at all.
func TestSpecMemoKeyCoversEveryField(t *testing.T) {
	base := Spec{Netlist: "INPUT(a)\nOUTPUT(a)\n"}
	withShard := base
	withShard.Shard = &ShardSel{Count: 2}
	for _, b := range []Spec{base, withShard} {
		baseKey, ok := specKey(b)
		if !ok {
			t.Fatalf("base spec %+v not memoizable", b)
		}
		rt := reflect.TypeOf(b)
		for i := 0; i < rt.NumField(); i++ {
			spec := b
			perturb(t, rt.Field(i).Name, reflect.ValueOf(&spec).Elem().Field(i))
			key, ok := specKey(spec)
			if rt.Field(i).Name == "Checkpoint" {
				if ok {
					t.Errorf("checkpoint-seeded spec is memoizable")
				}
				continue
			}
			if !ok || key == baseKey {
				t.Errorf("perturbing %s leaves the memo key unchanged (memoizable %v)", rt.Field(i).Name, ok)
			}
		}
		if b.Shard == nil {
			continue
		}
		st := reflect.TypeOf(*b.Shard)
		for i := 0; i < st.NumField(); i++ {
			spec, sel := b, *b.Shard
			spec.Shard = &sel
			perturb(t, "Shard."+st.Field(i).Name, reflect.ValueOf(&sel).Elem().Field(i))
			if key, ok := specKey(spec); !ok || key == baseKey {
				t.Errorf("perturbing Shard.%s leaves the memo key unchanged", st.Field(i).Name)
			}
		}
	}
}

// TestSpecMemoBound: the memo never holds more than specMemoCap
// entries, evicts the oldest first, and ignores a repeated key.
func TestSpecMemoBound(t *testing.T) {
	var m specMemo
	key := func(i int) [sha256.Size]byte { return sha256.Sum256([]byte(strconv.Itoa(i))) }
	const n = 2*specMemoCap + 3
	for i := 0; i < n; i++ {
		m.put(key(i), specFacts{costEstimate: int64(i)})
		m.put(key(i), specFacts{costEstimate: -1}) // no-op: already present
		if len(m.facts) > specMemoCap {
			t.Fatalf("after %d puts the memo holds %d entries, cap %d", i+1, len(m.facts), specMemoCap)
		}
	}
	for i := 0; i < n; i++ {
		f, ok := m.get(key(i))
		if want := i >= n-specMemoCap; ok != want || (ok && f.costEstimate != int64(i)) {
			t.Fatalf("entry %d: present %v (facts %+v), want present %v", i, ok, f, want)
		}
	}
}

// TestSpecMemoConcurrentSubmits races identical submissions against one
// cache-backed server (run it under -race): every job finishes with the
// same digest and the same artifacts, and one campaign result is
// stored.
func TestSpecMemoConcurrentSubmits(t *testing.T) {
	dir := t.TempDir()
	cache := openCache(t, -1)
	srv, err := New(dir, Options{Workers: 2, CheckpointEvery: time.Millisecond, Cache: cache, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	const jobs = 8
	spec := Spec{Netlist: benchText(t, 5, 21), MaxFaults: 10, FaultBudget: 200_000}
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := srv.Submit(spec)
			if err != nil {
				t.Error(err)
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	waitJobs(t, srv, 2*time.Minute, func(st JobStatus) bool { return st.State == Done })
	waitCache(t, cache, "1 stored entry", func(st rescache.Stats) bool { return st.Stored == 1 })
	if n := srv.testPrepares.Load(); n < 1 || n > jobs {
		t.Errorf("%d Prepare calls for %d identical submissions", n, jobs)
	}
	want, wantDigest := readArtifacts(t, dir, ids[0]), readJobFile(t, dir, ids[0]).Digest
	for _, id := range ids[1:] {
		if d := readJobFile(t, dir, id).Digest; d != wantDigest {
			t.Errorf("job %s: digest %q, want %q", id, d, wantDigest)
		}
		got := readArtifacts(t, dir, id)
		for _, name := range []string{"result.json", "vectors.vec"} {
			if !bytes.Equal(got[name], want[name]) {
				t.Errorf("job %s: %s differs from job %s", id, name, ids[0])
			}
		}
	}
}

// TestSpecMemoPreparesOncePerColdRun counts Prepare calls: none for a
// memo hit answered by the cache, exactly one for each cold run —
// whether Submit prepared the job, a memo hit missed the cache, or the
// job was recovered from disk.
func TestSpecMemoPreparesOncePerColdRun(t *testing.T) {
	spec := Spec{Netlist: benchText(t, 5, 9), MaxFaults: 12, FaultBudget: 200_000}
	check := func(srv *Server, what string, want int64) {
		t.Helper()
		if n := srv.testPrepares.Load(); n != want {
			t.Errorf("%s: %d Prepare calls in total, want %d", what, n, want)
		}
	}

	cache := openCache(t, -1)
	srv, err := New(t.TempDir(), Options{Workers: 1, CheckpointEvery: time.Millisecond, Cache: cache, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	submitDone(t, srv, spec)
	check(srv, "cold submission", 1)
	waitCache(t, cache, "1 stored entry", func(st rescache.Stats) bool { return st.Stored == 1 })
	submitDone(t, srv, spec)
	submitDone(t, srv, spec)
	check(srv, "two cache hits", 1)

	plain, err := New(t.TempDir(), Options{Workers: 1, CheckpointEvery: time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close(context.Background())
	submitDone(t, plain, spec)
	submitDone(t, plain, spec)
	check(plain, "two cold runs without a cache", 2)

	// A job recovered from disk is prepared by the worker that runs it.
	dir := t.TempDir()
	data, err := json.Marshal(jobFile{ID: "j000000", Spec: spec, Created: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "j000000"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "j000000", "job.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := New(dir, Options{Workers: 1, CheckpointEvery: time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close(context.Background())
	waitJobs(t, rec, 2*time.Minute, func(st JobStatus) bool { return st.State == Done })
	check(rec, "recovered job", 1)
}
