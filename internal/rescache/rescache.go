// Package rescache is the content-addressed result cache: ATPG
// campaign results are pure functions of (netlist, fault universe,
// campaign config), which the campaign layer already proves with
// fingerprinted checkpoints and byte-identical sharded runs, so a
// finished campaign's artifacts can be stored under a digest of those
// inputs and replayed verbatim for every later identical submission.
//
// The cache is disk-backed and crash-tolerant without being precious
// about it: every entry is staged in a temp directory and renamed into
// place, every stored file carries a CRC in the entry manifest, and a
// read that finds anything wrong — torn manifest, missing file, CRC
// mismatch — quarantines the entry and reports a miss, so corruption
// degrades to a cold run instead of a wrong answer. Capacity is
// bounded: inserts evict least-recently-used entries until the new
// payload fits.
//
// On-disk layout under the cache root:
//
//	ent-<digest>/entry.json   manifest: format version, per-file CRCs
//	ent-<digest>/<name>       stored artifact files, byte-exact
//	quar-<digest>/            quarantined corrupt entries, kept for inspection
//	tmp-<digest>/             staging; swept at Open after a crash
package rescache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"seqatpg/internal/campaign"
	"seqatpg/internal/fault"
	"seqatpg/internal/ioguard"
	"seqatpg/internal/netlist"
)

// FormatVersion guards the on-disk entry layout; entries written by a
// different version are quarantined rather than trusted.
const FormatVersion = 1

// DefaultCap is the capacity bound selected when Options.CapBytes is
// zero.
const DefaultCap int64 = 256 << 20

const (
	metaName    = "entry.json"
	entryPrefix = "ent-"
	tmpPrefix   = "tmp-"
	quarPrefix  = "quar-"
)

// Options configures a Cache. Dir is the only required field.
type Options struct {
	// Dir is the cache root directory (created if missing).
	Dir string
	// CapBytes bounds the total stored payload bytes: inserts past it
	// evict least-recently-used entries. Zero selects DefaultCap;
	// negative disables the bound.
	CapBytes int64
	// FS is the filesystem seam; nil selects the real one.
	FS ioguard.FS
	// Logf receives cache events (quarantines, evictions, refused
	// inserts); nil discards them.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time view of the cache counters.
type Stats struct {
	// Entries and Bytes describe what is stored right now.
	Entries int
	Bytes   int64
	// Hits and Misses count Get outcomes; a quarantined read counts as
	// both a quarantine and a miss.
	Hits   int64
	Misses int64
	// Stored counts successful Puts; Evictions counts entries removed
	// to stay under the capacity bound.
	Stored    int64
	Evictions int64
	// Quarantined counts corrupt entries moved aside — at Open (bad
	// manifest) or at Get (CRC or size mismatch, missing file).
	Quarantined int64
}

// Cache is a content-addressed, disk-backed, LRU-bounded result store.
// All methods are safe for concurrent use.
type Cache struct {
	dir  string
	cap  int64
	fs   ioguard.FS
	logf func(string, ...any)

	mu      sync.Mutex
	entries map[string]*entry
	// lru holds digests, most recently used first; entries index into
	// it is not kept — the list is short (capacity-bounded) and only
	// walked on eviction.
	lru   []string
	bytes int64
	stats Stats
}

// entry is the in-memory index record of one stored digest.
type entry struct {
	digest  string
	bytes   int64
	created time.Time
}

// metaFile is the entry manifest: it binds the stored files to the
// digest and carries the per-file CRCs a read validates.
type metaFile struct {
	Version int        `json:"version"`
	Digest  string     `json:"digest"`
	Created time.Time  `json:"created"`
	Files   []fileMeta `json:"files"`
}

type fileMeta struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
	Crc  uint32 `json:"crc32"`
}

// Open loads (or creates) a cache directory: stale staging directories
// are swept, existing entries are indexed (oldest becomes the eviction
// candidate), unreadable manifests are quarantined, and the index is
// trimmed to the capacity bound in case it shrank.
func Open(opts Options) (*Cache, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("rescache: empty cache directory")
	}
	capBytes := opts.CapBytes
	if capBytes == 0 {
		capBytes = DefaultCap
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = ioguard.OS
	}
	c := &Cache{
		dir:     opts.Dir,
		cap:     capBytes,
		fs:      fsys,
		logf:    opts.Logf,
		entries: map[string]*entry{},
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("rescache: cache directory: %w", err)
	}
	if err := c.load(); err != nil {
		return nil, err
	}
	return c, nil
}

// load scans the cache root, building the index. Called once from
// Open; no lock needed yet.
func (c *Cache) load() error {
	dirents, err := c.fs.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("rescache: scan %s: %w", c.dir, err)
	}
	var loaded []*entry
	for _, de := range dirents {
		name := de.Name()
		switch {
		case !de.IsDir():
			continue
		case strings.HasPrefix(name, tmpPrefix):
			// A crash mid-Put left staging behind; it was never visible.
			if err := c.removeDir(filepath.Join(c.dir, name)); err == nil {
				c.logf("rescache: swept stale staging %s", name)
			}
		case strings.HasPrefix(name, entryPrefix):
			digest := strings.TrimPrefix(name, entryPrefix)
			meta, err := c.readMeta(digest)
			if err != nil {
				c.quarantineLocked(digest, fmt.Sprintf("manifest: %v", err))
				continue
			}
			e := &entry{digest: digest, created: meta.Created}
			for _, f := range meta.Files {
				e.bytes += f.Size
			}
			loaded = append(loaded, e)
		}
	}
	// Recency across restarts is unknown; creation time is the best
	// available order (newest first, so the oldest entries evict first).
	sort.Slice(loaded, func(i, k int) bool { return loaded[i].created.After(loaded[k].created) })
	for _, e := range loaded {
		c.entries[e.digest] = e
		c.lru = append(c.lru, e.digest)
		c.bytes += e.bytes
	}
	c.evictLocked(0)
	c.stats.Evictions = 0 // trimming a shrunk cap at open is not runtime pressure
	return nil
}

// Get returns the stored files for digest, or (nil, false) on a miss.
// Every returned file was CRC-validated against the manifest; an entry
// failing validation in any way is quarantined and reported as a miss,
// so the caller always falls through to a correct cold run.
func (c *Cache) Get(digest string) (map[string][]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[digest]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	files, err := c.readEntry(e)
	if err != nil {
		c.quarantineLocked(digest, err.Error())
		c.dropLocked(e)
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.touchLocked(digest)
	return files, true
}

// readEntry loads and validates every file of an entry.
func (c *Cache) readEntry(e *entry) (map[string][]byte, error) {
	meta, err := c.readMeta(e.digest)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	files := make(map[string][]byte, len(meta.Files))
	for _, f := range meta.Files {
		data, err := c.fs.ReadFile(filepath.Join(c.entryDir(e.digest), f.Name))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name, err)
		}
		if int64(len(data)) != f.Size {
			return nil, fmt.Errorf("%s: %d bytes, manifest says %d", f.Name, len(data), f.Size)
		}
		if crc := crc32.ChecksumIEEE(data); crc != f.Crc {
			return nil, fmt.Errorf("%s: crc %08x, manifest says %08x", f.Name, crc, f.Crc)
		}
		files[f.Name] = data
	}
	return files, nil
}

func (c *Cache) readMeta(digest string) (*metaFile, error) {
	data, err := c.fs.ReadFile(filepath.Join(c.entryDir(digest), metaName))
	if err != nil {
		return nil, err
	}
	var meta metaFile
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, err
	}
	if meta.Version != FormatVersion {
		return nil, fmt.Errorf("format v%d, this build reads v%d", meta.Version, FormatVersion)
	}
	if meta.Digest != digest {
		return nil, fmt.Errorf("manifest names digest %.12s", meta.Digest)
	}
	return &meta, nil
}

// Put stores files under digest. An existing entry wins (results are
// deterministic, so the bytes are the same by construction); a payload
// larger than the whole capacity is refused with a log line rather
// than evicting everything for one entry. The entry is staged and
// renamed into place, so a reader (or a crash) never observes it half
// written.
func (c *Cache) Put(digest string, files map[string][]byte) error {
	if err := checkDigest(digest); err != nil {
		return err
	}
	var size int64
	meta := metaFile{Version: FormatVersion, Digest: digest, Created: time.Now().UTC()}
	for name, data := range files {
		if name == metaName || name != filepath.Base(name) || name == "." {
			return fmt.Errorf("rescache: invalid entry file name %q", name)
		}
		size += int64(len(data))
		meta.Files = append(meta.Files, fileMeta{Name: name, Size: int64(len(data)), Crc: crc32.ChecksumIEEE(data)})
	}
	if len(meta.Files) == 0 {
		return fmt.Errorf("rescache: empty entry for %.12s", digest)
	}
	sort.Slice(meta.Files, func(i, k int) bool { return meta.Files[i].Name < meta.Files[k].Name })

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[digest]; ok {
		c.touchLocked(digest)
		return nil
	}
	if c.cap > 0 && size > c.cap {
		c.logf("rescache: refusing %.12s: %d bytes exceeds the %d-byte capacity", digest, size, c.cap)
		return nil
	}
	c.evictLocked(size)

	staging := filepath.Join(c.dir, tmpPrefix+digest)
	if err := c.writeEntryDir(staging, meta, files); err != nil {
		c.removeDir(staging)
		return fmt.Errorf("rescache: store %.12s: %w", digest, err)
	}
	if err := c.fs.Rename(staging, c.entryDir(digest)); err != nil {
		c.removeDir(staging)
		return fmt.Errorf("rescache: store %.12s: %w", digest, err)
	}
	if err := c.fs.SyncDir(c.dir); err != nil {
		c.logf("rescache: fsync cache dir: %v", err)
	}
	e := &entry{digest: digest, bytes: size, created: meta.Created}
	c.entries[digest] = e
	c.lru = append([]string{digest}, c.lru...)
	c.bytes += size
	c.stats.Stored++
	return nil
}

// writeEntryDir stages one entry: every payload file plus the
// manifest, each synced before the caller renames the directory.
func (c *Cache) writeEntryDir(dir string, meta metaFile, files map[string][]byte) error {
	if err := c.fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range meta.Files {
		path := filepath.Join(dir, f.Name)
		if err := c.fs.WriteFile(path, files[f.Name], 0o644); err != nil {
			return err
		}
		if err := c.fs.Sync(path); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(meta, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, metaName)
	if err := c.fs.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return c.fs.Sync(path)
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.entries)
	st.Bytes = c.bytes
	return st
}

// touchLocked moves digest to the most-recently-used position.
func (c *Cache) touchLocked(digest string) {
	for i, d := range c.lru {
		if d == digest {
			copy(c.lru[1:i+1], c.lru[:i])
			c.lru[0] = digest
			return
		}
	}
}

// evictLocked removes least-recently-used entries until incoming more
// bytes fit under the capacity bound.
func (c *Cache) evictLocked(incoming int64) {
	if c.cap <= 0 {
		return
	}
	for c.bytes+incoming > c.cap && len(c.lru) > 0 {
		victim := c.entries[c.lru[len(c.lru)-1]]
		if err := c.removeDir(c.entryDir(victim.digest)); err != nil {
			c.logf("rescache: evicting %.12s: %v", victim.digest, err)
		}
		c.dropLocked(victim)
		c.stats.Evictions++
		c.logf("rescache: evicted %.12s (%d bytes)", victim.digest, victim.bytes)
	}
}

// dropLocked removes an entry from the in-memory index only.
func (c *Cache) dropLocked(e *entry) {
	delete(c.entries, e.digest)
	for i, d := range c.lru {
		if d == e.digest {
			c.lru = append(c.lru[:i], c.lru[i+1:]...)
			break
		}
	}
	c.bytes -= e.bytes
}

// quarantineLocked moves a corrupt entry aside, keeping its bytes for
// inspection; if even that fails the entry is deleted outright. Either
// way the digest reads as a miss afterwards.
func (c *Cache) quarantineLocked(digest, reason string) {
	src := c.entryDir(digest)
	dst := filepath.Join(c.dir, quarPrefix+digest)
	c.removeDir(dst) // a previous quarantine of the same digest
	if err := c.fs.Rename(src, dst); err != nil {
		c.removeDir(src)
	}
	c.stats.Quarantined++
	c.logf("rescache: quarantined %.12s: %s", digest, reason)
}

// removeDir deletes a directory and its immediate files (entries are
// flat; ioguard.FS has no recursive remove).
func (c *Cache) removeDir(dir string) error {
	dirents, err := c.fs.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, de := range dirents {
		if err := c.fs.Remove(filepath.Join(dir, de.Name())); err != nil {
			return err
		}
	}
	return c.fs.Remove(dir)
}

func (c *Cache) entryDir(digest string) string {
	return filepath.Join(c.dir, entryPrefix+digest)
}

func checkDigest(digest string) error {
	if digest == "" {
		return fmt.Errorf("rescache: empty digest")
	}
	for _, r := range digest {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return fmt.Errorf("rescache: digest %q is not lowercase hex", digest)
		}
	}
	return nil
}

// Digest derives the content address of a campaign in the given mode.
// It composes over campaign.Fingerprint, which already encodes the
// canonical inputs — the netlist serialization, the engine config's
// canonical encoding (atpg.Config.Canonical, which leaves out the
// search-tuning fields; FsimWorkers is not a config field at all), the
// retry count and the exact fault list. Mode namespaces
// digests whose campaign inputs coincide but whose stored artifacts
// differ: a sequential run, an N-way sharded run (the merged test
// order depends on N) and a shard wire result are distinct entries.
func Digest(c *netlist.Circuit, cfg campaign.Config, faults []fault.Fault, mode string) string {
	h := sha256.New()
	fmt.Fprintf(h, "rescache-v%d\n", FormatVersion)
	fmt.Fprintf(h, "campaign: %s\n", campaign.Fingerprint(c, cfg, faults))
	fmt.Fprintf(h, "mode: %s\n", mode)
	return hex.EncodeToString(h.Sum(nil))
}
