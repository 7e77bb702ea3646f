// Package fabric federates ATPG campaigns across a fleet of job-service
// workers: a Coordinator runs the same deterministic campaign.Plan a
// local campaign.Execute runs, through Execute itself, with a runner
// that dispatches each shard as a job over the service JSON API, so the
// merged Result is byte-identical to a single-node Execute of the plan.
package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seqatpg/internal/campaign"
	"seqatpg/internal/ioguard"
	"seqatpg/internal/rescache"
	"seqatpg/internal/service"
)

// Coordinator errors.
var (
	// ErrNoWorkers reports that the fleet has no compatible worker left
	// to dispatch to.
	ErrNoWorkers = errors.New("fabric: no compatible worker available")
	// ErrShardExhausted reports a shard that burned through its
	// re-dispatch budget without completing.
	ErrShardExhausted = errors.New("fabric: shard exhausted its re-dispatch budget")
)

// journalVersion guards the coordinator's durable state format.
const journalVersion = 1

// Options configures a Coordinator. Workers is the only required
// field.
type Options struct {
	// Workers lists the fleet's base URLs.
	Workers []string
	// Shards is the campaign partition count; zero selects
	// len(Workers), and more than service.MaxShards is rejected (no
	// worker would accept the shard jobs). More shards than workers is
	// fine (workers run several shard jobs); more shards than faults
	// yields empty shards, which are merged without dispatching
	// anything.
	Shards int
	// Balance packs shards by predicted per-fault search cost
	// (campaign.PlanBalanced) instead of round-robin by index, so no
	// single shard collects the predicted-hard faults and becomes the
	// straggler that sets the campaign makespan. Placement only moves
	// faults between shards; the merged verdicts are identical either
	// way. Workers derive the same partition independently from the
	// Balanced flag on their shard selector.
	Balance bool
	// Lease is how long a dispatched shard may go without observable
	// progress before its lease is revoked and the shard re-dispatched;
	// zero selects 30s.
	Lease time.Duration
	// Heartbeat is the status-poll interval that renews leases; zero
	// selects Lease/5 (min 50ms).
	Heartbeat time.Duration
	// MaxRedispatch bounds how many times one shard may be dispatched
	// (first dispatch included); zero selects 8.
	MaxRedispatch int
	// Dir, when set, makes coordinator state durable: fetched shard
	// checkpoints, finished shard results and the run journal live
	// there, so a restarted coordinator resumes instead of starting
	// over.
	Dir string
	// Client tunes the per-worker retrying client and breaker.
	Client ClientOptions
	// FsimWorkers sizes the final merge fault-simulation pass; zero
	// selects 1 (the outcome is worker-count-invariant either way).
	FsimWorkers int
	// Logf receives coordinator progress lines; nil discards them.
	Logf func(format string, args ...any)
	// FS is the filesystem seam for Dir (fault injection in tests);
	// nil selects the real one.
	FS ioguard.FS
	// Cache, when set, memoizes finished shard wire results by content
	// digest. Unlike the journal (bound to one campaign fingerprint and
	// shard count), the cache is cross-campaign: a repeated submission,
	// or a different shard count whose round-robin sublists happen to
	// align, skips every shard whose digest is already stored.
	Cache *rescache.Cache
	// OnShardCheckpoint, if set, is called after a shard checkpoint has
	// been fetched, validated and cached. Chaos tests hang precise
	// kill-points off it.
	OnShardCheckpoint func(shard int, worker string, data []byte)
	// OnShardDone, if set, is called when a shard's result has been
	// fetched and cached.
	OnShardDone func(shard int, worker string)
}

func (o Options) withDefaults() Options {
	if o.Shards == 0 {
		o.Shards = len(o.Workers)
	}
	if o.Lease <= 0 {
		o.Lease = 30 * time.Second
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = o.Lease / 5
		if o.Heartbeat < 50*time.Millisecond {
			o.Heartbeat = 50 * time.Millisecond
		}
	}
	if o.MaxRedispatch == 0 {
		o.MaxRedispatch = 8
	}
	if o.FsimWorkers <= 0 {
		o.FsimWorkers = 1
	}
	if o.FS == nil {
		o.FS = ioguard.OS
	}
	return o
}

// Coordinator federates campaigns across a worker fleet: it runs the
// campaign.Plan its workers derive from their shard selectors through
// campaign.Execute with a remote runner (remoteRun) that holds each
// dispatched shard under a heartbeat-renewed lease and re-dispatches
// lost shards from their last durable checkpoint. It holds only fleet
// state and counters; each Run's journal, restored results and
// checkpoints live in that Run's runner.
type Coordinator struct {
	opts    Options
	clients []*Client
	logf    func(string, ...any)

	pickSeq        atomic.Uint64
	leasesActive   atomic.Int64
	redispatch     atomic.Int64
	shardsRestored atomic.Int64
	shardsCached   atomic.Int64
	inflight       map[string]*atomic.Int64 // worker URL -> running shard jobs

	// Predicted per-shard load spread of the current placement, in
	// (rounded) predicted gate evaluations; set once per Run when
	// Balance is on.
	predShardMax atomic.Int64
	predShardMin atomic.Int64
	predTotal    atomic.Int64
}

// journalFile is the durable run journal: which campaign this is (so a
// restarted coordinator refuses to mix state from a different one) and
// which shards have already finished. Balanced records the placement
// mode: a balanced and a round-robin run of the same campaign produce
// different shard sublists, so their journals must not mix either.
type journalFile struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Shards      int    `json:"shards"`
	Balanced    bool   `json:"balanced,omitempty"`
	Done        []int  `json:"done"`
}

// NewCoordinator validates opts and builds the fleet clients.
func NewCoordinator(opts Options) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("fabric: coordinator needs at least one worker URL")
	}
	opts = opts.withDefaults()
	if opts.Shards < 1 || opts.Shards > service.MaxShards {
		return nil, fmt.Errorf("fabric: %d shards, want 1 to %d", opts.Shards, service.MaxShards)
	}
	c := &Coordinator{
		opts:     opts,
		logf:     opts.Logf,
		inflight: map[string]*atomic.Int64{},
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	seen := map[string]bool{}
	for i, w := range opts.Workers {
		cl := NewClient(w, opts.Client)
		if seen[cl.URL()] {
			return nil, fmt.Errorf("fabric: duplicate worker URL %s", cl.URL())
		}
		seen[cl.URL()] = true
		// Distinct jitter streams per worker keep retry storms from
		// synchronizing across the fleet.
		if opts.Client.JitterSeed == 0 {
			clOpts := opts.Client
			clOpts.JitterSeed = int64(i + 1)
			cl = NewClient(w, clOpts)
		}
		c.clients = append(c.clients, cl)
		c.inflight[cl.URL()] = &atomic.Int64{}
	}
	return c, nil
}

// Run executes the campaign described by spec across the fleet and
// returns the merged global result. The spec must describe the whole
// campaign (no shard selector); the coordinator derives the per-shard
// jobs itself.
func (c *Coordinator) Run(ctx context.Context, spec service.Spec) (*campaign.Result, error) {
	if spec.Shard != nil {
		return nil, fmt.Errorf("fabric: spec already carries a shard selector")
	}
	if len(spec.Checkpoint) != 0 {
		return nil, fmt.Errorf("fabric: spec-level checkpoints are managed by the coordinator")
	}
	spec.Shards = 0

	// The coordinator prepares the campaign locally too: it needs the
	// fault universe for partitioning and merging, the circuit for the
	// final fault-simulation pass, and the fingerprint to bind durable
	// state to this exact campaign.
	p, err := service.Prepare(spec)
	if err != nil {
		return nil, err
	}
	fp := campaign.Fingerprint(p.Circuit, campaign.NormalizeForSharding(p.Campaign), p.Faults)
	// Sizes Execute's merge pass; fingerprints and digests ignore it.
	p.Campaign.FsimWorkers = c.opts.FsimWorkers
	plan := service.ShardSel{Count: c.opts.Shards, Balanced: c.opts.Balance}.Plan(p.Campaign, p.Scores)
	if c.opts.Balance {
		c.recordPlacement(plan.Indices(), p.Scores)
	}

	if err := c.handshake(ctx); err != nil {
		return nil, err
	}
	r := &remoteRun{Coordinator: c, spec: spec, p: p}
	if err := r.loadJournal(fp); err != nil {
		return nil, err
	}
	return campaign.Execute(ctx, p.Circuit, p.Faults, plan, r.run)
}

// remoteRun is one Run's partition runner and the state it owns: the
// journal, the shard results it restored, and each shard's newest
// validated checkpoint.
type remoteRun struct {
	*Coordinator
	spec service.Spec
	p    *service.Prepared

	mu       sync.Mutex
	journal  journalFile
	restored map[int]*campaign.Result
	ckpts    map[int][]byte
}

// run produces shard k's result: restored from the journal, served
// from the result cache, or driven on a worker and then cached.
func (r *remoteRun) run(ctx context.Context, k int, part campaign.Partition) (*campaign.Result, error) {
	n := len(part.Indices)
	// restored is read-only once loadJournal returns. A stale journal
	// whose shard sizes no longer match restores nothing.
	if res := r.restored[k]; res != nil && len(res.Outcomes) == n {
		r.shardsRestored.Add(1)
		r.logf("fabric: %s restored from journal", part.Name)
		return res, nil
	}
	// Addressed by the shard job's own inputs, so any partition
	// producing the same sublist shares the entry.
	digest := ""
	if r.opts.Cache != nil {
		digest = rescache.Digest(r.p.Circuit, part.Config, part.Sublist(r.p.Faults), "wire-shard")
	}
	if res := r.cachedShardResult(digest, n); res != nil {
		r.logf("fabric: %s served from the result cache", part.Name)
		r.recordDone(k, res)
		return res, nil
	}
	res, err := r.driveShard(ctx, k, n)
	if err != nil {
		return nil, err
	}
	r.storeShardResult(digest, res)
	return res, nil
}

// recordPlacement publishes the predicted load spread of a balanced
// placement — how evenly the packing spread predicted evaluations over
// the shards — and logs it for operators comparing against the
// straggler shards a round-robin split would produce.
func (c *Coordinator) recordPlacement(idxs [][]int, scores []float64) {
	minLoad, maxLoad, total := math.Inf(1), 0.0, 0.0
	for _, ix := range idxs {
		var load float64
		for _, gi := range ix {
			load += scores[gi]
		}
		total += load
		if load > maxLoad {
			maxLoad = load
		}
		if load < minLoad {
			minLoad = load
		}
	}
	if minLoad > maxLoad {
		minLoad = maxLoad
	}
	c.predShardMax.Store(satInt64(maxLoad))
	c.predShardMin.Store(satInt64(minLoad))
	c.predTotal.Store(satInt64(total))
	c.logf("fabric: balanced placement over %d shards: predicted evals min %d / max %d / total %d",
		len(idxs), satInt64(minLoad), satInt64(maxLoad), satInt64(total))
}

// satInt64 rounds a non-negative float to int64, saturating instead of
// relying on the implementation-defined overflow conversion.
func satInt64(v float64) int64 {
	if v >= float64(math.MaxInt64) {
		return math.MaxInt64
	}
	if v < 0 {
		return 0
	}
	return int64(v)
}

// cachedShardResult consults the cross-campaign result cache for a
// finished shard's wire result. Anything unusable — undecodable
// bytes, wrong fault count, an interrupted run — is treated as a
// plain miss; the shard is then dispatched normally.
func (c *Coordinator) cachedShardResult(digest string, wantFaults int) *campaign.Result {
	if c.opts.Cache == nil || digest == "" {
		return nil
	}
	files, ok := c.opts.Cache.Get(digest)
	if !ok {
		return nil
	}
	res, err := campaign.DecodeResult(files["merge.json"])
	if err != nil || len(res.Outcomes) != wantFaults || res.Interrupted {
		c.logf("fabric: ignoring unusable cached shard result %.12s", digest)
		return nil
	}
	c.shardsCached.Add(1)
	return res
}

// storeShardResult publishes a pristine finished shard wire result to
// the cross-campaign cache. Resumed, degraded and interrupted results
// are skipped: they reach the same verdicts but are not the canonical
// bytes of a cold shard run.
func (c *Coordinator) storeShardResult(digest string, res *campaign.Result) {
	if c.opts.Cache == nil || digest == "" || res.Resumed || res.Degraded || res.Interrupted {
		return
	}
	data, err := campaign.EncodeResult(res)
	if err != nil {
		c.logf("fabric: encoding shard result for the cache failed: %v", err)
		return
	}
	if err := c.opts.Cache.Put(digest, map[string][]byte{"merge.json": data}); err != nil {
		c.logf("fabric: caching shard result failed: %v", err)
	}
}

// handshake verifies every worker speaks this coordinator's formats
// and drops the ones that do not. Unreachable workers stay in the
// fleet (they may come back); incompatible ones are ejected outright —
// mixing checkpoint or wire formats corrupts results, downtime only
// delays them.
func (c *Coordinator) handshake(ctx context.Context) error {
	var kept []*Client
	for _, cl := range c.clients {
		v, err := cl.Version(ctx)
		if err != nil {
			c.logf("fabric: worker %s unreachable during handshake (keeping): %v", cl.URL(), err)
			kept = append(kept, cl)
			continue
		}
		if v.Service != "seqatpg" || v.API != service.APIVersion ||
			v.CheckpointFormat != campaign.CheckpointFormatVersion ||
			v.ResultWire != campaign.ResultWireVersion {
			c.logf("fabric: worker %s is incompatible (service=%q api=%d ckpt=%d wire=%d): %v",
				cl.URL(), v.Service, v.API, v.CheckpointFormat, v.ResultWire, ErrIncompatible)
			continue
		}
		kept = append(kept, cl)
	}
	if len(kept) == 0 {
		return fmt.Errorf("%w: all %d workers failed the version handshake", ErrNoWorkers, len(c.clients))
	}
	if len(kept) < len(c.clients) {
		c.logf("fabric: fleet reduced to %d/%d workers by version handshake", len(kept), len(c.clients))
	}
	c.clients = kept
	return nil
}

// driveShard drives one shard to completion: dispatch, lease-watch,
// re-dispatch on loss, bounded by MaxRedispatch.
func (r *remoteRun) driveShard(ctx context.Context, k, wantFaults int) (*campaign.Result, error) {
	avoid := ""
	for attempt := 0; attempt < r.opts.MaxRedispatch; attempt++ {
		if attempt > 0 {
			r.redispatch.Add(1)
			r.logf("fabric: shard %d re-dispatch %d/%d", k, attempt, r.opts.MaxRedispatch-1)
		}
		cl, err := r.pickWorker(ctx, avoid)
		if err != nil {
			return nil, err
		}
		res, lost, err := r.dispatchOnce(ctx, cl, k, wantFaults)
		if err != nil && !lost {
			return nil, err
		}
		if res != nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		avoid = cl.URL()
	}
	return nil, fmt.Errorf("%w after %d dispatches", ErrShardExhausted, r.opts.MaxRedispatch)
}

// pickWorker selects the least-loaded worker whose breaker admits
// calls, preferring any worker other than `avoid` (the one that just
// lost the shard's lease). If every breaker is open it waits a
// heartbeat and re-scans, giving probation a chance to half-open.
func (c *Coordinator) pickWorker(ctx context.Context, avoid string) (*Client, error) {
	deadline := time.Now().Add(c.opts.Lease + c.opts.Client.Probation + time.Second)
	for {
		// The scan starts at a rotating offset so equally-loaded workers
		// are taken round-robin: concurrent shard dispatches spread over
		// the fleet instead of all resolving the tie to worker 0.
		start := int(c.pickSeq.Add(1)-1) % len(c.clients)
		var best *Client
		bestLoad := int64(0)
		for pass := 0; pass < 2 && best == nil; pass++ {
			for i := range c.clients {
				cl := c.clients[(start+i)%len(c.clients)]
				if pass == 0 && cl.URL() == avoid && len(c.clients) > 1 {
					continue
				}
				if !cl.Available() {
					continue
				}
				load := c.inflight[cl.URL()].Load()
				if best == nil || load < bestLoad {
					best, bestLoad = cl, load
				}
			}
		}
		if best != nil {
			return best, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(c.opts.Heartbeat):
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%w: every breaker open past probation", ErrNoWorkers)
		}
	}
}

// dispatchOnce submits shard k to one worker and watches it under a
// lease. It returns (result, false, nil) on completion, (nil, true, _)
// when the lease was lost and the shard should be re-dispatched, and a
// hard error only for conditions re-dispatching cannot fix.
func (r *remoteRun) dispatchOnce(ctx context.Context, cl *Client, k, wantFaults int) (*campaign.Result, bool, error) {
	spec := r.spec
	spec.Shard = &service.ShardSel{Index: k, Count: r.opts.Shards, Balanced: r.opts.Balance}
	if spec.Name == "" {
		spec.Name = "fabric"
	}
	spec.Name = fmt.Sprintf("%s-shard%d-of-%d", spec.Name, k, r.opts.Shards)
	r.mu.Lock()
	spec.Checkpoint = r.ckpts[k]
	r.mu.Unlock()

	id, err := cl.Submit(ctx, spec)
	if err != nil {
		r.logf("fabric: shard %d: submit to %s failed: %v", k, cl.URL(), err)
		return nil, true, err
	}
	r.logf("fabric: shard %d dispatched to %s as %s (%d bytes of checkpoint)", k, cl.URL(), id, len(spec.Checkpoint))

	inf := r.inflight[cl.URL()]
	inf.Add(1)
	r.leasesActive.Add(1)
	defer func() {
		inf.Add(-1)
		r.leasesActive.Add(-1)
	}()

	lease := time.Now().Add(r.opts.Lease)
	var lastState service.State
	var lastProgress int64 = -1
	for {
		select {
		case <-ctx.Done():
			r.cancelJob(cl, id)
			return nil, false, ctx.Err()
		case <-time.After(r.opts.Heartbeat):
		}

		st, err := cl.Status(ctx, id)
		if err != nil {
			if ctx.Err() != nil {
				r.cancelJob(cl, id)
				return nil, false, ctx.Err()
			}
			r.logf("fabric: shard %d: heartbeat to %s failed: %v", k, cl.URL(), err)
			if time.Now().After(lease) {
				r.logf("fabric: shard %d: lease expired on unreachable %s, re-dispatching", k, cl.URL())
				r.cancelJob(cl, id)
				return nil, true, err
			}
			continue
		}

		// Renew the lease only on observable liveness: a state change,
		// forward progress, or honest queueing. A worker that answers
		// polls but whose job is wedged still loses the lease.
		progress := st.Attempts + st.CheckpointWrites + int64(st.Pass)
		if st.State != lastState || progress > lastProgress || st.State == service.Queued {
			lease = time.Now().Add(r.opts.Lease)
			lastState, lastProgress = st.State, progress
		}

		if st.State == service.Running {
			r.fetchCheckpoint(ctx, cl, id, k)
		}

		switch {
		case st.State == service.Done:
			res, err := cl.ShardResult(ctx, id)
			if err != nil {
				r.logf("fabric: shard %d: result fetch from %s failed: %v", k, cl.URL(), err)
				return nil, true, err
			}
			if len(res.Outcomes) != wantFaults {
				return nil, false, fmt.Errorf("fabric: shard %d result covers %d faults, want %d", k, len(res.Outcomes), wantFaults)
			}
			r.recordDone(k, res)
			if r.opts.OnShardDone != nil {
				r.opts.OnShardDone(k, cl.URL())
			}
			r.logf("fabric: shard %d done on %s", k, cl.URL())
			return res, false, nil
		case st.State == service.Failed, st.State == service.Cancelled:
			r.logf("fabric: shard %d %s on %s: %s", k, st.State, cl.URL(), st.Error)
			return nil, true, fmt.Errorf("fabric: shard %d %s on worker: %s", k, st.State, st.Error)
		}

		if time.Now().After(lease) {
			r.logf("fabric: shard %d: lease expired (job %s stuck in %s on %s), re-dispatching", k, id, st.State, cl.URL())
			r.cancelJob(cl, id)
			return nil, true, fmt.Errorf("fabric: shard %d lease expired", k)
		}
	}
}

// cancelJob is the best-effort cleanup after a lease loss or
// interruption; a partitioned worker will simply never hear it.
func (c *Coordinator) cancelJob(cl *Client, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.Client.withDefaults().RequestTimeout)
	defer cancel()
	_ = cl.Cancel(ctx, id)
}

// fetchCheckpoint pulls the shard's newest checkpoint, validates its
// CRC, and caches it (durably when Dir is set). Invalid or stale bytes
// are dropped: a torn response must never poison the re-dispatch seed.
func (r *remoteRun) fetchCheckpoint(ctx context.Context, cl *Client, id string, k int) {
	data, err := cl.Checkpoint(ctx, id)
	if err != nil {
		if !errors.Is(err, ErrNoCheckpoint) && ctx.Err() == nil {
			r.logf("fabric: shard %d: checkpoint fetch from %s failed: %v", k, cl.URL(), err)
		}
		return
	}
	if err := campaign.CheckCheckpointBytes(data); err != nil {
		r.logf("fabric: shard %d: discarding invalid checkpoint from %s: %v", k, cl.URL(), err)
		return
	}
	r.mu.Lock()
	changed := string(r.ckpts[k]) != string(data)
	if changed {
		r.ckpts[k] = data
	}
	r.mu.Unlock()
	if !changed {
		return
	}
	if r.opts.Dir != "" {
		if err := ioguard.WriteFileDurable(r.opts.FS, r.shardCkptPath(k), data, 0o644); err != nil {
			r.logf("fabric: shard %d: persisting checkpoint failed: %v", k, err)
		}
	}
	if r.opts.OnShardCheckpoint != nil {
		r.opts.OnShardCheckpoint(k, cl.URL(), data)
	}
}

func (c *Coordinator) shardCkptPath(k int) string {
	return filepath.Join(c.opts.Dir, fmt.Sprintf("shard%d.ckpt", k))
}

func (c *Coordinator) shardResultPath(k int) string {
	return filepath.Join(c.opts.Dir, fmt.Sprintf("shard%d.result.json", k))
}

func (c *Coordinator) journalPath() string {
	return filepath.Join(c.opts.Dir, "fabric.json")
}

// loadJournal binds durable coordinator state to this campaign's
// fingerprint. Matching state restores finished shard results and
// cached checkpoints; state from a different campaign or shard count
// is ignored (and will be overwritten as this run progresses).
func (r *remoteRun) loadJournal(fp string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.journal = journalFile{Version: journalVersion, Fingerprint: fp, Shards: r.opts.Shards, Balanced: r.opts.Balance}
	r.restored, r.ckpts = map[int]*campaign.Result{}, map[int][]byte{}
	if r.opts.Dir == "" {
		return nil
	}
	if err := r.opts.FS.MkdirAll(r.opts.Dir, 0o755); err != nil {
		return fmt.Errorf("fabric: coordinator dir: %w", err)
	}
	data, err := r.opts.FS.ReadFile(r.journalPath())
	if err != nil {
		r.startFreshLocked()
		return nil
	}
	var j journalFile
	if err := json.Unmarshal(data, &j); err != nil || j.Version != journalVersion {
		r.logf("fabric: ignoring unreadable coordinator journal: %v", err)
		r.startFreshLocked()
		return nil
	}
	if j.Fingerprint != fp || j.Shards != r.opts.Shards || j.Balanced != r.opts.Balance {
		r.logf("fabric: journal belongs to a different campaign (or shard count/placement), starting fresh")
		r.startFreshLocked()
		return nil
	}
	for _, k := range j.Done {
		data, err := r.opts.FS.ReadFile(r.shardResultPath(k))
		if err != nil {
			r.logf("fabric: journal marks shard %d done but its result is unreadable: %v", k, err)
			continue
		}
		res, err := campaign.DecodeResult(data)
		if err != nil {
			r.logf("fabric: journal shard %d result is corrupt, re-dispatching: %v", k, err)
			continue
		}
		r.restored[k] = res
		r.journal.Done = append(r.journal.Done, k)
	}
	// Cached checkpoints seed re-dispatch of the unfinished shards.
	for k := 0; k < r.opts.Shards; k++ {
		if r.restored[k] != nil {
			continue
		}
		if data, err := r.opts.FS.ReadFile(r.shardCkptPath(k)); err == nil {
			if campaign.CheckCheckpointBytes(data) == nil {
				r.ckpts[k] = data
			}
		}
	}
	return nil
}

// startFreshLocked scrubs shard state left by a different campaign and
// writes this run's journal immediately, so checkpoints cached before
// the first shard finishes are still fingerprint-bound on restart.
// r.mu held.
func (r *remoteRun) startFreshLocked() {
	for _, pat := range []string{"shard*.ckpt", "shard*.result.json"} {
		stale, _ := r.opts.FS.Glob(filepath.Join(r.opts.Dir, pat))
		for _, p := range stale {
			_ = r.opts.FS.Remove(p)
		}
	}
	r.persistJournalLocked()
}

// recordDone persists a finished shard's result and journals it, so a
// restarted coordinator re-dispatches only the unfinished shards.
func (r *remoteRun) recordDone(k int, res *campaign.Result) {
	if r.opts.Dir == "" {
		return
	}
	data, err := campaign.EncodeResult(res)
	if err != nil {
		r.logf("fabric: shard %d: encoding result for the journal failed: %v", k, err)
		return
	}
	if err := ioguard.WriteFileDurable(r.opts.FS, r.shardResultPath(k), data, 0o644); err != nil {
		r.logf("fabric: shard %d: persisting result failed: %v", k, err)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range r.journal.Done {
		if d == k {
			return
		}
	}
	r.journal.Done = append(r.journal.Done, k)
	sort.Ints(r.journal.Done)
	r.persistJournalLocked()
}

// persistJournalLocked writes the journal file durably; r.mu held.
func (r *remoteRun) persistJournalLocked() {
	jdata, err := json.MarshalIndent(r.journal, "", " ")
	if err == nil {
		err = ioguard.WriteFileDurable(r.opts.FS, r.journalPath(), append(jdata, '\n'), 0o644)
	}
	if err != nil {
		r.logf("fabric: journal write failed: %v", err)
	}
}
