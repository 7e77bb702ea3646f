package rescache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"seqatpg/internal/atpg/hitec"
	"seqatpg/internal/campaign"
	"seqatpg/internal/fault"
	"seqatpg/internal/ioguard"
	"seqatpg/internal/netlist"
)

func testDigest(n byte) string {
	return strings.Repeat(fmt.Sprintf("%02x", n), 32)
}

func open(t *testing.T, dir string, capBytes int64) *Cache {
	t.Helper()
	c, err := Open(Options{Dir: dir, CapBytes: capBytes, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPutGetRoundtrip(t *testing.T) {
	c := open(t, t.TempDir(), -1)
	d := testDigest(1)
	want := map[string][]byte{
		"result.json": []byte(`{"detected": 3}` + "\n"),
		"vectors.vec": []byte("0X1\n10X\n"),
	}
	if err := c.Put(d, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(d)
	if !ok {
		t.Fatal("stored entry reads as a miss")
	}
	if len(got) != len(want) {
		t.Fatalf("got %d files, want %d", len(got), len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("%s: got %q, want %q", name, got[name], data)
		}
	}
	if _, ok := c.Get(testDigest(2)); ok {
		t.Fatal("unknown digest reads as a hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stored != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 stored, 1 entry", st)
	}
	if want := int64(len(want["result.json"]) + len(want["vectors.vec"])); st.Bytes != want {
		t.Fatalf("bytes = %d, want %d", st.Bytes, want)
	}
}

func TestPutValidation(t *testing.T) {
	c := open(t, t.TempDir(), -1)
	files := map[string][]byte{"a": []byte("x")}
	for _, d := range []string{"", "UPPER", "zz", "ent-abc", "../escape"} {
		if err := c.Put(d, files); err == nil {
			t.Errorf("digest %q accepted", d)
		}
	}
	for _, name := range []string{"entry.json", "../escape", "a/b", "."} {
		if err := c.Put(testDigest(3), map[string][]byte{name: []byte("x")}); err == nil {
			t.Errorf("file name %q accepted", name)
		}
	}
	if err := c.Put(testDigest(3), map[string][]byte{}); err == nil {
		t.Error("empty entry accepted")
	}
}

// TestLRUEviction fills a bounded cache past its cap and checks that
// the least-recently-used entries go first, that a Get refreshes
// recency, and that the byte accounting never exceeds the cap.
func TestLRUEviction(t *testing.T) {
	payload := func(n int) map[string][]byte {
		return map[string][]byte{"blob": bytes.Repeat([]byte{byte(n)}, 100)}
	}
	c := open(t, t.TempDir(), 250) // room for two 100-byte entries
	for n := 1; n <= 2; n++ {
		if err := c.Put(testDigest(byte(n)), payload(n)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 1 so 2 becomes the eviction candidate.
	if _, ok := c.Get(testDigest(1)); !ok {
		t.Fatal("entry 1 missing before eviction")
	}
	if err := c.Put(testDigest(3), payload(3)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Bytes > 250 || st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after eviction = %+v, want <=250 bytes, 1 eviction, 2 entries", st)
	}
	if _, ok := c.Get(testDigest(2)); ok {
		t.Error("LRU entry 2 survived the eviction")
	}
	for _, n := range []byte{1, 3} {
		if _, ok := c.Get(testDigest(n)); !ok {
			t.Errorf("entry %d evicted out of LRU order", n)
		}
	}
}

func TestOversizedEntryRefused(t *testing.T) {
	c := open(t, t.TempDir(), 50)
	if err := c.Put(testDigest(1), map[string][]byte{"blob": bytes.Repeat([]byte{1}, 100)}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Stored != 0 || st.Bytes != 0 {
		t.Fatalf("oversized entry was stored: %+v", st)
	}
}

func TestDuplicatePutIsNoop(t *testing.T) {
	c := open(t, t.TempDir(), -1)
	d := testDigest(4)
	if err := c.Put(d, map[string][]byte{"a": []byte("first")}); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(d, map[string][]byte{"a": []byte("second")}); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Get(d)
	if string(got["a"]) != "first" {
		t.Fatalf("duplicate Put replaced the entry: %q", got["a"])
	}
	if st := c.Stats(); st.Stored != 1 {
		t.Fatalf("stored = %d, want 1", st.Stored)
	}
}

// TestCorruptEntryQuarantined flips bytes in stored files and
// manifests and checks every corruption reads as a miss with the
// entry moved aside — never an error, never stale bytes.
func TestCorruptEntryQuarantined(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
	}{
		{"payload bit flip", func(t *testing.T, dir string) {
			flipFile(t, filepath.Join(dir, "blob"))
		}},
		{"payload truncated", func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "blob"), []byte("sh"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"payload missing", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "blob")); err != nil {
				t.Fatal(err)
			}
		}},
		{"manifest torn", func(t *testing.T, dir string) {
			data, err := os.ReadFile(filepath.Join(dir, metaName))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, metaName), data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			c := open(t, root, -1)
			d := testDigest(5)
			if err := c.Put(d, map[string][]byte{"blob": []byte("payload bytes")}); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, filepath.Join(root, entryPrefix+d))
			if _, ok := c.Get(d); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			st := c.Stats()
			if st.Quarantined != 1 || st.Misses != 1 || st.Entries != 0 || st.Bytes != 0 {
				t.Fatalf("stats = %+v, want 1 quarantined, 1 miss, empty cache", st)
			}
			if _, err := os.Stat(filepath.Join(root, quarPrefix+d)); err != nil {
				t.Errorf("quarantine directory missing: %v", err)
			}
			// The digest is insertable again after quarantine.
			if err := c.Put(d, map[string][]byte{"blob": []byte("payload bytes")}); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(d); !ok {
				t.Fatal("re-stored entry misses")
			}
		})
	}
}

func flipFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReopen closes the book on durability: entries survive a
// restart, a corrupt manifest is quarantined during the rescan, stale
// staging directories are swept, and a shrunken cap trims the index.
func TestReopen(t *testing.T) {
	root := t.TempDir()
	c := open(t, root, -1)
	for n := byte(1); n <= 3; n++ {
		if err := c.Put(testDigest(n), map[string][]byte{"blob": bytes.Repeat([]byte{n}, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	// A crash artifact and a corrupt manifest for the rescan to handle.
	if err := os.MkdirAll(filepath.Join(root, tmpPrefix+testDigest(9)), 0o755); err != nil {
		t.Fatal(err)
	}
	flipFile(t, filepath.Join(root, entryPrefix+testDigest(2), metaName))

	c2 := open(t, root, -1)
	st := c2.Stats()
	if st.Entries != 2 || st.Quarantined != 1 {
		t.Fatalf("reopened stats = %+v, want 2 entries, 1 quarantined", st)
	}
	for _, n := range []byte{1, 3} {
		if _, ok := c2.Get(testDigest(n)); !ok {
			t.Errorf("entry %d lost across reopen", n)
		}
	}
	if _, err := os.Stat(filepath.Join(root, tmpPrefix+testDigest(9))); !os.IsNotExist(err) {
		t.Error("stale staging directory survived reopen")
	}

	// Reopen under a cap smaller than the surviving entries: the index
	// must trim itself and never report bytes above the cap.
	c3 := open(t, root, 150)
	if st := c3.Stats(); st.Bytes > 150 || st.Entries != 1 {
		t.Fatalf("capped reopen stats = %+v, want <=150 bytes, 1 entry", st)
	}
}

// TestTornPutNeverVisible interrupts a Put mid-write with an injected
// torn write and checks the half-written entry is neither indexed nor
// resurrected by a later Open.
func TestTornPutNeverVisible(t *testing.T) {
	root := t.TempDir()
	ffs := ioguard.NewFaultFS(ioguard.OS, ioguard.Rule{
		Kind: "write", PathContains: tmpPrefix, Mode: ioguard.Torn,
	})
	c, err := Open(Options{Dir: root, CapBytes: -1, FS: ffs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	d := testDigest(6)
	if err := c.Put(d, map[string][]byte{"blob": []byte("will be torn")}); err == nil {
		t.Fatal("torn Put reported success")
	}
	if _, ok := c.Get(d); ok {
		t.Fatal("torn entry served as a hit")
	}
	reopened := open(t, root, -1)
	if _, ok := reopened.Get(d); ok {
		t.Fatal("torn entry resurrected by reopen")
	}
	if st := reopened.Stats(); st.Entries != 0 {
		t.Fatalf("reopened entries = %d, want 0", st.Entries)
	}
}

// TestDigest pins that the content address tracks exactly the
// semantic campaign inputs: circuit, config, fault list and mode bind.
// Which engine fields bind is atpg.Config.Canonical's to pin.
func TestDigest(t *testing.T) {
	text := "INPUT(a)\nOUTPUT(z)\nd = DFF(g)\ng = AND(a, d)\nz = NOT(d)\n"
	c, err := netlist.ReadBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.Config{Engine: hitec.DefaultConfig(1, 1000)}
	faults := fault.CollapsedUniverse(c)

	base := Digest(c, cfg, faults, "job-seq")
	if again := Digest(c, cfg, faults, "job-seq"); again != base {
		t.Fatal("digest is not deterministic")
	}
	if d := Digest(c, cfg, faults, "job-sharded-2"); d == base {
		t.Error("mode does not bind")
	}
	if d := Digest(c, cfg, faults[:len(faults)-1], "job-seq"); d == base {
		t.Error("fault list does not bind")
	}
	cfg2 := cfg
	cfg2.Retries = 3
	if d := Digest(c, cfg2, faults, "job-seq"); d == base {
		t.Error("retries do not bind")
	}
	cfg3 := cfg
	cfg3.Engine.FaultBudget *= 2
	if d := Digest(c, cfg3, faults, "job-seq"); d == base {
		t.Error("engine budget does not bind")
	}
}

func TestSingleflight(t *testing.T) {
	var g Singleflight
	if !g.Begin("d1", "a") {
		t.Fatal("first claimant is not the leader")
	}
	if g.Begin("d1", "b") || g.Begin("d1", "c") {
		t.Fatal("follower claimed leadership")
	}
	if !g.Begin("d2", "x") {
		t.Fatal("a different digest shares the flight")
	}
	followers := g.End("d1")
	if len(followers) != 2 || followers[0] != "b" || followers[1] != "c" {
		t.Fatalf("followers = %v, want [b c]", followers)
	}
	// The flight is gone: the next claimant leads again.
	if !g.Begin("d1", "b") {
		t.Fatal("post-End claimant is not the leader")
	}
	if got := g.End("d1"); len(got) != 0 {
		t.Fatalf("fresh flight has followers %v", got)
	}
}

// TestSingleflightRace hammers one digest from many goroutines:
// exactly one leader per flight generation, and every follower is
// returned exactly once.
func TestSingleflightRace(t *testing.T) {
	var g Singleflight
	const claimants = 32
	var wg sync.WaitGroup
	leaders := make(chan string, claimants)
	for i := 0; i < claimants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if g.Begin("d", fmt.Sprintf("owner%d", i)) {
				leaders <- fmt.Sprintf("owner%d", i)
			}
		}(i)
	}
	wg.Wait()
	close(leaders)
	var lead []string
	for l := range leaders {
		lead = append(lead, l)
	}
	if len(lead) != 1 {
		t.Fatalf("%d leaders for one digest: %v", len(lead), lead)
	}
	followers := g.End("d")
	if len(followers) != claimants-1 {
		t.Fatalf("%d followers returned, want %d", len(followers), claimants-1)
	}
	seen := map[string]bool{lead[0]: true}
	for _, f := range followers {
		if seen[f] {
			t.Fatalf("owner %s returned twice", f)
		}
		seen[f] = true
	}
}

func TestConcurrentPutGet(t *testing.T) {
	c := open(t, t.TempDir(), 4096)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := byte(1); n <= 10; n++ {
				d := testDigest(n)
				c.Put(d, map[string][]byte{"blob": bytes.Repeat([]byte{n}, 64)})
				if files, ok := c.Get(d); ok {
					if len(files["blob"]) != 64 || files["blob"][0] != n {
						t.Errorf("digest %d served wrong bytes", n)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > 4096 {
		t.Fatalf("bytes %d exceeded the cap under concurrency", st.Bytes)
	}
}
