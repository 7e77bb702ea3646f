// Package service runs ATPG campaigns as a long-lived job service: a
// bounded worker pool drains a FIFO queue of submitted jobs, every job
// advances through the queued → running → done/failed/cancelled
// lifecycle, and all state that matters across a crash lives on disk
// under one directory per job. A restarted server rescans that
// directory, reloads finished jobs for status queries, and re-enqueues
// every job without a terminal marker — interrupted runs then resume
// from the fingerprinted campaign checkpoints they wrote on the way
// down, finishing with stats identical to a run that was never
// stopped.
//
// On-disk layout, one directory per job under the service root:
//
//	<root>/<id>/job.json          submitted spec, immutable
//	<root>/<id>/checkpoint.json   campaign checkpoint(s) while running
//	<root>/<id>/terminal.json     final state marker; absence = resumable
//	<root>/<id>/result.json       Summary, written for done jobs
//	<root>/<id>/vectors.vec       generated test sequences, done jobs
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seqatpg/internal/campaign"
	"seqatpg/internal/fault"
	"seqatpg/internal/ioguard"
	"seqatpg/internal/rescache"
	"seqatpg/internal/sim"
)

// State is a job's position in the lifecycle FSM.
type State string

// Job lifecycle states. Queued and Running are live; the other three
// are terminal and recorded on disk in terminal.json.
const (
	Queued    State = "queued"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// Terminal reports whether the state ends the lifecycle.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// transitions is the lifecycle FSM. Running → Queued is the drain
// edge: a server going down interrupts its running jobs (they
// checkpoint) and leaves them resumable for the next process.
// Queued → Done is the cache edge: a submission whose digest is
// already in the result cache completes without ever running.
var transitions = map[State]map[State]bool{
	Queued:  {Running: true, Cancelled: true, Done: true},
	Running: {Done: true, Failed: true, Cancelled: true, Queued: true},
}

// Service errors the HTTP layer maps to status codes.
var (
	ErrNotFound  = errors.New("service: no such job")
	ErrTerminal  = errors.New("service: job already finished")
	ErrDraining  = errors.New("service: server is draining")
	ErrNotDone   = errors.New("service: job has not completed")
	ErrQueueFull = errors.New("service: submission queue is full")
)

// Options tunes a Server.
type Options struct {
	// Workers is the worker-pool size; zero selects 2.
	Workers int
	// CheckpointEvery is the per-job periodic checkpoint gap; zero
	// selects the campaign default of 30 seconds.
	CheckpointEvery time.Duration
	// LogTail caps the per-job progress log kept in memory; zero
	// selects 50 lines.
	LogTail int
	// QueueCap bounds the pending-job queue: submissions past the cap
	// are rejected with ErrQueueFull (HTTP 429) instead of growing the
	// backlog without limit. Zero selects 256; negative disables the
	// cap.
	QueueCap int
	// StuckTimeout is the per-job watchdog budget: a running job whose
	// campaign makes no observable progress (no fault attempt and no
	// checkpoint activity) for this long is failed rather than left
	// hanging a worker forever. Zero disables the watchdog.
	StuckTimeout time.Duration
	// PredictBudgets derives each job's watchdog budget from its
	// predicted hardest fault instead of the flat StuckTimeout: the
	// budget becomes the time that fault needs at the observed
	// evaluation rate (with a 4x safety margin), never less than
	// StuckTimeout and never more than an hour. A job full of
	// predicted-hard faults legitimately goes long between observable
	// progress events; without this, raising -stuck-timeout for the
	// worst job penalizes hang detection on every easy one.
	PredictBudgets bool
	// Logf, when set, receives server-level log lines.
	Logf func(format string, args ...any)
	// FS is the filesystem used for all job-store persistence; nil
	// selects the real one. Fault-injection tests substitute an
	// ioguard.FaultFS.
	FS ioguard.FS
	// Cache, when set, memoizes finished job artifacts by content
	// digest: a submission whose digest is stored completes immediately
	// with artifacts byte-identical to the cold run that stored them,
	// and concurrent identical submissions collapse to one campaign
	// run. Checkpoint-seeded shard jobs bypass the cache (their results
	// carry Resumed and must not alias a fresh run's bytes).
	Cache *rescache.Cache
}

func (o Options) queueCap() int {
	switch {
	case o.QueueCap == 0:
		return 256
	case o.QueueCap < 0:
		return int(^uint(0) >> 1) // no cap
	default:
		return o.QueueCap
	}
}

// job is the in-memory record. Fields below the atomics are guarded by
// the server mutex; the atomics are written from campaign hooks on
// worker (and shard) goroutines while status snapshots read them.
type job struct {
	id      string
	spec    Spec
	created time.Time

	attempts     atomic.Int64
	ckptWrites   atomic.Int64
	ckptFailures atomic.Int64
	degraded     atomic.Bool
	pass         atomic.Int64 // highest pass index seen + 1
	runs         atomic.Int32 // times a worker of this process picked the job up
	cancelReq    atomic.Bool
	stuckReq     atomic.Bool // set by the watchdog before it cancels the run
	logs         logRing

	state       State
	started     time.Time
	finished    time.Time
	errMsg      string
	result      *Summary
	totalFaults int
	quarantined bool
	digest      string             // content address; empty = uncacheable
	cancel      context.CancelFunc // non-nil exactly while running

	// costEstimate and maxFaultCost are the job's predicted charged
	// effort and hardest single fault, in gate evaluations (see
	// Prepared). Immutable after submission/recovery; zero in records
	// from builds without prediction.
	costEstimate int64
	maxFaultCost int64
	// prepared is the executable form Submit built, held from a cold
	// submission until a worker picks the job up; nil for memo hits and
	// recovered jobs, which runJob prepares itself.
	prepared *Prepared
}

// JobStatus is the externally visible snapshot of one job.
type JobStatus struct {
	ID       string    `json:"id"`
	Name     string    `json:"name,omitempty"`
	State    State     `json:"state"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	Error    string    `json:"error,omitempty"`
	// Live progress, fed from the campaign Hook/Log instrumentation.
	TotalFaults      int   `json:"total_faults,omitempty"`
	Attempts         int64 `json:"attempts"`
	Pass             int   `json:"pass"`
	CheckpointWrites int64 `json:"checkpoint_writes"`
	// Degraded reports that checkpoint persistence has failed at least
	// once for this job: compute continues, but an interruption now
	// loses more progress than CheckpointEvery promises.
	Degraded           bool  `json:"degraded,omitempty"`
	CheckpointFailures int64 `json:"checkpoint_failures,omitempty"`
	Quarantined        bool  `json:"quarantined,omitempty"`
	Shards             int   `json:"shards,omitempty"`
	Runs               int   `json:"runs,omitempty"` // diagnostics: pickups by this process
	// Digest is the job's content address in the result cache; it
	// doubles as the ETag of GET /result. Empty for uncacheable jobs.
	Digest string   `json:"digest,omitempty"`
	Log    []string `json:"log,omitempty"`
	Result *Summary `json:"result,omitempty"`
}

// Server is the job service: store, queue and worker pool.
type Server struct {
	dir  string
	opts Options
	fs   ioguard.FS

	mu     sync.Mutex
	cond   *sync.Cond
	jobs   map[string]*job
	order  []string // submission order, for listings
	queue  []string // pending job ids, FIFO
	seq    int
	closed bool

	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	metrics counters
	// perfEvals/perfNanos accumulate the charged effort and wall-clock
	// run time of cold-run completed jobs; their ratio is the measured
	// evaluation rate that calibrates drain estimates and predicted
	// watchdog budgets. Cache hits are excluded — they finish in
	// microseconds and would inflate the rate without bound.
	perfEvals atomic.Int64
	perfNanos atomic.Int64
	// flight collapses concurrent runs of the same digest; only
	// consulted when a result cache is configured.
	flight rescache.Singleflight
	// memo remembers what Submit needs from each distinct spec it has
	// prepared, so a repeat submission skips circuit analysis.
	memo specMemo

	// testPrepares counts the Prepare calls this server makes (read by
	// tests only).
	testPrepares atomic.Int64
	// testJobSettled, when set (tests only), fires after a job leaves
	// the Running state for any reason.
	testJobSettled func(id string, st State)
	// testRunCampaign, when set (tests only), replaces the campaign
	// execution inside runJob — watchdog tests hang here instead of
	// engineering a genuinely stuck search.
	testRunCampaign func(ctx context.Context, j *job, ccfg campaign.Config) (*campaign.Result, error)
}

// New opens (or creates) the service directory, recovers every job
// recorded in it, and starts the worker pool. Jobs without a terminal
// marker — queued or interrupted when the previous process died — are
// re-enqueued in id order and resume from their checkpoints.
func New(dir string, opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.LogTail <= 0 {
		opts.LogTail = 50
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = ioguard.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: job directory: %w", err)
	}
	s := &Server{
		dir:  dir,
		opts: opts,
		fs:   fsys,
		jobs: map[string]*job{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.ctx, s.stop = context.WithCancel(context.Background())
	s.sweepStaleTemp()
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// jobFile is the immutable submission record.
type jobFile struct {
	ID      string    `json:"id"`
	Spec    Spec      `json:"spec"`
	Created time.Time `json:"created"`
	// Digest is the job's content address, recorded so ETags and cache
	// stores survive a restart; absent in records from older builds.
	Digest string `json:"digest,omitempty"`
	// CostEstimate and MaxFaultCost are the job's predicted effort (see
	// Prepared), recorded so drain estimates and predicted watchdog
	// budgets survive a restart without re-extracting features; absent
	// in records from older builds (treated as unpredicted).
	CostEstimate int64 `json:"cost_estimate,omitempty"`
	MaxFaultCost int64 `json:"max_fault_cost,omitempty"`
}

// terminalFile marks a finished lifecycle; its absence after a restart
// is what makes a job resumable.
type terminalFile struct {
	State    State     `json:"state"`
	Error    string    `json:"error,omitempty"`
	Finished time.Time `json:"finished"`
}

// recover rescans the store. Damage to one job's files — a torn
// job.json, a terminal marker that stopped halfway, a done job whose
// result.json is gone — quarantines that job (terminal Failed, with
// the parse failure as the reason, its files left untouched for
// inspection) and never blocks recovery of the healthy jobs around it.
func (s *Server) recover() error {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("service: scan %s: %w", s.dir, err)
	}
	var recovered []*job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		j, ok := s.recoverJob(e.Name())
		if !ok {
			continue
		}
		recovered = append(recovered, j)
		if n := idNumber(j.id); n >= s.seq {
			s.seq = n + 1
		}
	}
	sort.Slice(recovered, func(i, k int) bool { return recovered[i].id < recovered[k].id })
	for _, j := range recovered {
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if j.state == Queued {
			s.queue = append(s.queue, j.id)
			s.logf("recovered job %s (resumable)", j.id)
		}
	}
	return nil
}

// recoverJob loads one job directory, quarantining on any damage. The
// false return means the directory is not a job at all.
func (s *Server) recoverJob(name string) (*job, bool) {
	var jf jobFile
	if err := readJSON(s.fs, filepath.Join(s.dir, name, "job.json"), &jf); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, false // foreign directory; leave it alone
		}
		return s.quarantine(name, Spec{}, fmt.Sprintf("job.json: %v", err)), true
	}
	if jf.ID != name {
		return s.quarantine(name, jf.Spec, fmt.Sprintf("directory holds job %q", jf.ID)), true
	}
	j := &job{id: jf.ID, spec: jf.Spec, created: jf.Created, state: Queued, digest: jf.Digest,
		costEstimate: jf.CostEstimate, maxFaultCost: jf.MaxFaultCost}
	j.logs.max = s.opts.LogTail
	var tf terminalFile
	switch err := readJSON(s.fs, filepath.Join(s.dir, j.id, "terminal.json"), &tf); {
	case err == nil:
		if !tf.State.Terminal() {
			return s.quarantine(name, jf.Spec, fmt.Sprintf("terminal marker with live state %q", tf.State)), true
		}
		j.state = tf.State
		j.errMsg = tf.Error
		j.finished = tf.Finished
		if j.state == Done {
			var sum Summary
			if err := readJSON(s.fs, filepath.Join(s.dir, j.id, "result.json"), &sum); err != nil {
				return s.quarantine(name, jf.Spec, fmt.Sprintf("done without result: %v", err)), true
			}
			j.result = &sum
		}
	case errors.Is(err, os.ErrNotExist):
		// Queued or interrupted mid-run: resumable.
	default:
		return s.quarantine(name, jf.Spec, fmt.Sprintf("terminal.json: %v", err)), true
	}
	return j, true
}

// quarantine parks a damaged job as terminal Failed without touching
// its files: the quarantine is recomputed (and logged) on every
// restart until an operator repairs or removes the directory.
func (s *Server) quarantine(id string, spec Spec, reason string) *job {
	j := &job{id: id, spec: spec, state: Failed, quarantined: true,
		errMsg: "quarantined: " + reason, finished: time.Now()}
	j.logs.max = s.opts.LogTail
	s.metrics.quarantined.Add(1)
	s.logf("job %s quarantined: %s", id, reason)
	return j
}

// sweepStaleTemp removes *.tmp files a mid-write crash left in the
// store root or a job directory. They are never valid state — every
// writer stages through a temp name and renames — so a survivor is
// pure garbage that would otherwise accumulate forever.
func (s *Server) sweepStaleTemp() {
	for _, pat := range []string{
		filepath.Join(s.dir, "*.tmp"),
		filepath.Join(s.dir, "*", "*.tmp"),
	} {
		matches, err := s.fs.Glob(pat)
		if err != nil {
			continue
		}
		for _, m := range matches {
			if err := s.fs.Remove(m); err == nil {
				s.logf("removed stale temp file %s", m)
			}
		}
	}
}

func idNumber(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if err != nil {
		return -1
	}
	return n
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// DefaultEvalRate is the deterministic prior for the per-worker
// evaluation rate (gate evaluations per second) used until the first
// cold job completes and a measured rate takes over.
const DefaultEvalRate = 2e6

// maxDrain bounds a drain estimate; past a day the number carries no
// more information for a Retry-After hint and only risks overflow.
const maxDrain = 24 * time.Hour

// maxWatchBudget caps a prediction-derived watchdog budget: a
// prediction gone wild must stretch hang detection, not disable it.
const maxWatchBudget = time.Hour

// EvalRate reports the pool's gate-evaluation throughput per worker:
// measured from completed cold runs once there are any, the
// DefaultEvalRate prior before that.
func (s *Server) EvalRate() float64 {
	evals, nanos := s.perfEvals.Load(), s.perfNanos.Load()
	if evals <= 0 || nanos <= 0 {
		return DefaultEvalRate
	}
	return float64(evals) / (float64(nanos) / float64(time.Second))
}

// pendingCostLocked sums the predicted effort still ahead of the
// worker pool: every queued and running job's estimate in full (the
// finished fraction of a running job is unknown, so the whole estimate
// is the safe upper bound). Jobs without an estimate contribute
// nothing. s.mu held.
func (s *Server) pendingCostLocked() int64 {
	var total int64
	for _, j := range s.jobs {
		if j.state != Queued && j.state != Running {
			continue
		}
		if est := j.costEstimate; est > 0 {
			if total > int64(^uint64(0)>>1)-est {
				return int64(^uint64(0) >> 1)
			}
			total += est
		}
	}
	return total
}

// DrainEstimate predicts how long the current backlog — queued plus
// running jobs — needs to drain: predicted pending evaluations over
// the pool's evaluation rate. Queue-full 429 Retry-After hints are
// derived from this, so a client backs off proportionally to what is
// actually queued instead of a constant.
func (s *Server) DrainEstimate() time.Duration {
	s.mu.Lock()
	cost := s.pendingCostLocked()
	s.mu.Unlock()
	if cost <= 0 {
		return 0
	}
	workers := s.opts.Workers
	if workers < 1 {
		workers = 1
	}
	secs := float64(cost) / (s.EvalRate() * float64(workers))
	if secs >= maxDrain.Seconds() {
		return maxDrain
	}
	return time.Duration(secs * float64(time.Second))
}

// watchBudget is the watchdog budget for one job: the flat
// StuckTimeout, or — with PredictBudgets — the larger of it and the
// time the job's predicted-hardest fault needs at the current
// evaluation rate with a 4x safety margin, capped at maxWatchBudget.
// Prediction may stretch the budget, never shrink it below the
// configured floor.
func (s *Server) watchBudget(j *job) time.Duration {
	budget := s.opts.StuckTimeout
	if !s.opts.PredictBudgets || j.maxFaultCost <= 0 {
		return budget
	}
	secs := 4 * float64(j.maxFaultCost) / s.EvalRate()
	pred := maxWatchBudget
	if secs < maxWatchBudget.Seconds() {
		pred = time.Duration(secs * float64(time.Second))
	}
	if pred > budget {
		budget = pred
	}
	return budget
}

// observePrediction folds a cold-run completion into calibration and
// accuracy accounting: the measured evaluation rate, and whether the
// prediction over- or under-estimated the job's actual charged effort.
func (s *Server) observePrediction(j *job, sum *Summary) {
	if d := time.Since(j.started); d > 0 && sum.Effort > 0 {
		s.perfEvals.Add(sum.Effort)
		s.perfNanos.Add(int64(d))
	}
	if j.costEstimate <= 0 {
		return
	}
	s.metrics.predictedEvals.Add(j.costEstimate)
	if sum.Effort > j.costEstimate {
		s.metrics.predictOverruns.Add(1)
	} else {
		s.metrics.predictUnderruns.Add(1)
	}
}

// Submit validates the spec (including parsing the netlist), persists
// the job and enqueues it. The returned id is stable across restarts.
// When the result cache holds the spec's digest, the job completes at
// submission — it never occupies the queue or a worker, and a full
// queue does not reject it. A spec this server has already prepared
// successfully is not prepared again: its digest and cost prediction
// come from the spec memo.
func (s *Server) Submit(spec Spec) (string, error) {
	var p *Prepared
	key, memoable := specKey(spec)
	facts, known := s.memo.get(key) // an unmemoable spec's zero key is never stored
	if !known {
		var err error
		if p, err = s.prepare(spec); err != nil {
			return "", err
		}
		facts = specFacts{digest: specDigest(spec, p), costEstimate: p.CostEstimate, maxFaultCost: p.MaxFaultCost}
		if memoable {
			s.memo.put(key, facts)
		}
	}
	digest := facts.digest
	var hit map[string][]byte
	if s.opts.Cache != nil && digest != "" {
		hit, _ = s.opts.Cache.Get(digest)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", ErrDraining
	}
	if hit == nil && len(s.queue) >= s.opts.queueCap() {
		s.metrics.rejected.Add(1)
		n := len(s.queue)
		s.mu.Unlock()
		return "", fmt.Errorf("%w (%d pending)", ErrQueueFull, n)
	}
	id := fmt.Sprintf("j%06d", s.seq)
	j := &job{id: id, spec: spec, created: time.Now(), state: Queued, digest: digest,
		costEstimate: facts.costEstimate, maxFaultCost: facts.maxFaultCost}
	j.logs.max = s.opts.LogTail
	if err := s.writeJSON(filepath.Join(s.dir, id, "job.json"),
		jobFile{ID: id, Spec: spec, Created: j.created, Digest: digest,
			CostEstimate: facts.costEstimate, MaxFaultCost: facts.maxFaultCost}); err != nil {
		s.mu.Unlock()
		return "", err
	}
	s.seq++
	s.jobs[id] = j
	s.order = append(s.order, id)
	if hit == nil {
		j.prepared = p
		s.queue = append(s.queue, id)
		s.cond.Signal()
		s.mu.Unlock()
		s.logf("job %s submitted (%s)", id, spec.describe())
		return id, nil
	}
	s.mu.Unlock()
	s.logf("job %s submitted (%s)", id, spec.describe())
	if err := s.installFromCache(j, hit); err != nil {
		// An unusable hit (the entry was fine at Get, the install
		// failed) degrades to the cold path, never to a failed job.
		s.logf("job %s: cached result unusable, queued for a cold run: %v", id, err)
		s.mu.Lock()
		j.prepared = p
		s.queue = append(s.queue, id)
		s.cond.Signal()
		s.mu.Unlock()
	}
	return id, nil
}

// prepare is Prepare, counted for tests.
func (s *Server) prepare(spec Spec) (*Prepared, error) {
	s.testPrepares.Add(1)
	return Prepare(spec)
}

// specMemoCap bounds the spec memo; past it the oldest entry goes.
const specMemoCap = 1024

// specFacts is what Submit needs from a Prepared: no circuit, no
// fault list.
type specFacts struct {
	digest       string
	costEstimate int64
	maxFaultCost int64
}

// specMemo maps the key of every spec a server prepared successfully
// to its facts, first in first out. Prepare is a pure function of the
// Spec, so an entry stays valid for the server's lifetime; failures
// are never stored, so an invalid spec is re-checked on every
// submission.
type specMemo struct {
	mu    sync.Mutex
	facts map[[sha256.Size]byte]specFacts
	ring  [specMemoCap][sha256.Size]byte // keys in insertion order
	next  int                            // ring slot of the oldest key once full
}

func (m *specMemo) get(key [sha256.Size]byte) (specFacts, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.facts[key]
	return f, ok
}

func (m *specMemo) put(key [sha256.Size]byte, f specFacts) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.facts == nil {
		m.facts = map[[sha256.Size]byte]specFacts{}
	}
	if _, ok := m.facts[key]; ok {
		return
	}
	if len(m.facts) == specMemoCap {
		delete(m.facts, m.ring[m.next])
	}
	m.ring[m.next] = key
	m.next = (m.next + 1) % specMemoCap
	m.facts[key] = f
}

// specKey is the memo key of a spec: the SHA-256 of its JSON encoding,
// which covers every field. Checkpoint-seeded specs are uncacheable
// and never memoized (false).
func specKey(spec Spec) ([sha256.Size]byte, bool) {
	if len(spec.Checkpoint) > 0 {
		return [sha256.Size]byte{}, false
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return [sha256.Size]byte{}, false
	}
	return sha256.Sum256(data), true
}

// specDigest derives a submission's content address, or "" for
// uncacheable submissions. Checkpoint-seeded shard jobs are excluded:
// their results carry Resumed and would alias the fresh run's digest
// with different bytes. For shard-selector jobs the digest covers the
// prepared fault sublist and normalized config, so any (index, count)
// pair selecting the same sublist shares an entry; for locally
// sharded jobs the shard count is part of the mode because the merged
// test order depends on it.
func specDigest(spec Spec, p *Prepared) string {
	if len(spec.Checkpoint) > 0 {
		return ""
	}
	mode := "job-seq"
	switch {
	case spec.Shard != nil:
		mode = "job-shard"
	case p.Shards > 1:
		mode = fmt.Sprintf("job-sharded-%d", p.Shards)
	}
	return rescache.Digest(p.Circuit, p.Campaign, p.Faults, mode)
}

// cacheArtifacts lists the files a done job persists — exactly what a
// cache entry must replay for a hit to be indistinguishable from the
// cold run that stored it.
// The terminal marker is last: installFromCache writes in this order,
// so a crash mid-install never leaves a Done marker ahead of the
// artifacts it promises.
func cacheArtifacts(j *job) []string {
	names := []string{"result.json", "vectors.vec"}
	if j.spec.Shard != nil {
		names = append(names, "merge.json")
	}
	return append(names, "terminal.json")
}

// installFromCache replays a cache entry into the job's directory
// verbatim and completes the job. The artifacts — result, vectors,
// shard wire result and even the terminal marker — are the exact
// bytes the cold run wrote, which is the cache's contract; the
// in-memory finish time comes from the cached marker so a restart
// recovers the same view.
func (s *Server) installFromCache(j *job, files map[string][]byte) error {
	var sum Summary
	if err := json.Unmarshal(files["result.json"], &sum); err != nil {
		return fmt.Errorf("cached result.json: %w", err)
	}
	var tf terminalFile
	if err := json.Unmarshal(files["terminal.json"], &tf); err != nil {
		return fmt.Errorf("cached terminal.json: %w", err)
	}
	if tf.State != Done {
		return fmt.Errorf("cached terminal state is %q, want %q", tf.State, Done)
	}
	for _, name := range cacheArtifacts(j) {
		data, ok := files[name]
		if !ok {
			return fmt.Errorf("cache entry lacks %s", name)
		}
		if err := ioguard.WriteFileDurable(s.fs, filepath.Join(s.dir, j.id, name), data, 0o644); err != nil {
			return fmt.Errorf("install cached %s: %w", name, err)
		}
	}
	s.mu.Lock()
	s.transitionMemLocked(j, Done)
	j.result = &sum
	j.errMsg = ""
	j.finished = tf.Finished
	j.totalFaults = sum.Total
	j.cancel = nil
	s.mu.Unlock()
	s.metrics.addResult(&sum)
	s.metrics.jobsDone.Add(1)
	s.logf("job %s: done (result cache hit %.12s)", j.id, j.digest)
	s.settled(j.id, Done)
	return nil
}

// cacheStore publishes a freshly finished job's artifacts to the
// result cache. Only pristine results are stored: a resumed, degraded
// or interrupted run reaches the same verdicts but not the same bytes
// as a cold run, and byte-identity is the cache's contract. The bytes
// are read back from the job directory, so what the cache replays is
// literally what this job serves.
func (s *Server) cacheStore(j *job, res *campaign.Result) {
	if s.opts.Cache == nil || j.digest == "" || res.Resumed || res.Degraded || res.Interrupted {
		return
	}
	files := map[string][]byte{}
	for _, name := range cacheArtifacts(j) {
		data, err := s.fs.ReadFile(filepath.Join(s.dir, j.id, name))
		if err != nil {
			s.logf("job %s: result not cached, %s unreadable: %v", j.id, name, err)
			return
		}
		files[name] = data
	}
	if err := s.opts.Cache.Put(j.digest, files); err != nil {
		s.logf("job %s: result cache store failed: %v", j.id, err)
	}
}

// requeue returns parked singleflight followers to the queue once
// their leader's flight ended: each one re-enters runJob and either
// hits the freshly stored cache entry or becomes the next leader.
func (s *Server) requeue(ids []string) {
	if len(ids) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		j, ok := s.jobs[id]
		if !ok || j.state != Queued {
			continue // cancelled while parked
		}
		s.queue = append(s.queue, id)
		s.cond.Signal()
	}
}

// Cancel stops a job: a queued job goes terminal immediately, a
// running one has its campaign interrupted and finishes as cancelled
// at the next fault boundary. Cancelling a terminal job is an error.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	switch j.state {
	case Queued:
		j.prepared = nil
		s.transitionLocked(j, Cancelled, "cancelled while queued")
		s.mu.Unlock()
		s.settled(j.id, Cancelled)
		return nil
	case Running:
		j.cancelReq.Store(true)
		j.cancel()
		s.mu.Unlock()
		return nil
	default:
		s.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrTerminal, id, j.state)
	}
}

// Status returns a snapshot of one job.
func (s *Server) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return s.statusLocked(j, true), nil
}

// List returns snapshots of every job in submission order, without
// the per-job log tail.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id], false))
	}
	return out
}

func (s *Server) statusLocked(j *job, withLog bool) JobStatus {
	st := JobStatus{
		ID:                 j.id,
		Name:               j.spec.Name,
		State:              j.state,
		Created:            j.created,
		Started:            j.started,
		Finished:           j.finished,
		Error:              j.errMsg,
		TotalFaults:        j.totalFaults,
		Attempts:           j.attempts.Load(),
		Pass:               int(j.pass.Load()),
		CheckpointWrites:   j.ckptWrites.Load(),
		Degraded:           j.degraded.Load(),
		CheckpointFailures: j.ckptFailures.Load(),
		Quarantined:        j.quarantined,
		Shards:             j.spec.shardCount(),
		Runs:               int(j.runs.Load()),
		Digest:             j.digest,
		Result:             j.result,
	}
	if withLog {
		st.Log = j.logs.tail()
	}
	return st
}

// Close drains the server: no new submissions, idle workers exit, and
// running campaigns are interrupted so they write their checkpoints
// and park as resumable. Queued jobs stay queued on disk. Close
// returns when every worker has exited or ctx expires.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.stop()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.logf("drained")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", context.Cause(ctx))
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		id := s.queue[0]
		s.queue = s.queue[1:]
		j := s.jobs[id]
		if j.state != Queued {
			s.mu.Unlock() // cancelled while waiting in the queue
			continue
		}
		ctx, cancel := context.WithCancel(s.ctx)
		j.state = Running
		j.started = time.Now()
		j.cancel = cancel
		j.runs.Add(1)
		p := j.prepared
		j.prepared = nil
		s.mu.Unlock()
		s.runJob(ctx, j, p)
		cancel()
	}
}

// runJob executes one job's campaign and moves it to its next state.
// With a result cache configured, the run is guarded twice: a cache
// hit completes the job without computing, and a digest already being
// computed by another worker parks this job as a singleflight
// follower — it re-enters the queue when the leader's flight ends and
// then consumes the cached result. p is the job's Prepared when
// Submit built one; otherwise the job is prepared here, so a cold run
// prepares exactly once.
func (s *Server) runJob(ctx context.Context, j *job, p *Prepared) {
	if s.opts.Cache != nil && j.digest != "" {
		if files, ok := s.opts.Cache.Get(j.digest); ok {
			if err := s.installFromCache(j, files); err == nil {
				return
			} else {
				s.logf("job %s: cached result unusable, running cold: %v", j.id, err)
			}
		}
		if !s.flight.Begin(j.digest, j.id) {
			s.mu.Lock()
			s.transitionMemLocked(j, Queued)
			j.cancel = nil
			s.mu.Unlock()
			s.logf("job %s: identical campaign %.12s already in flight, parked for its result", j.id, j.digest)
			s.settled(j.id, Queued)
			return
		}
		defer func() { s.requeue(s.flight.End(j.digest)) }()
	}

	var err error
	if p == nil {
		if p, err = s.prepare(j.spec); err != nil {
			s.finishJob(j, Failed, err.Error(), nil)
			return
		}
	}
	s.mu.Lock()
	j.totalFaults = len(p.Faults)
	s.mu.Unlock()

	ccfg := p.Campaign
	ccfg.CheckpointPath = filepath.Join(s.dir, j.id, "checkpoint.json")
	ccfg.CheckpointEvery = s.opts.CheckpointEvery
	ccfg.Resume = true // picks up the checkpoint if one exists, fresh start otherwise
	s.seedCheckpoint(j, ccfg.CheckpointPath)
	ccfg.FS = s.fs
	ccfg.Hook = func(i int, f fault.Fault) {
		j.attempts.Add(1)
		s.metrics.attempts.Add(1)
	}
	ccfg.OnCheckpoint = func() {
		j.ckptWrites.Add(1)
		s.metrics.ckptWrites.Add(1)
	}
	ccfg.OnCheckpointFailure = func(error) {
		j.ckptFailures.Add(1)
		j.degraded.Store(true)
		s.metrics.ckptFailures.Add(1)
	}
	ccfg.Log = s.jobLogger(j)

	wbudget := s.watchBudget(j)
	if s.opts.StuckTimeout > 0 {
		stopWatch := s.watchJob(ctx, j, wbudget)
		defer stopWatch()
	}

	var res *campaign.Result
	switch {
	case s.testRunCampaign != nil:
		res, err = s.testRunCampaign(ctx, j, ccfg)
	case p.Shards > 1:
		res, err = campaign.Execute(ctx, p.Circuit, p.Faults, campaign.PlanRoundRobin(ccfg, len(p.Faults), p.Shards), nil)
	default:
		res, err = campaign.Run(ctx, p.Circuit, p.Faults, ccfg)
	}
	if res != nil && res.Degraded {
		j.degraded.Store(true)
	}
	stuck := j.stuckReq.Load()
	switch {
	case err != nil && stuck, err == nil && res.Interrupted && stuck:
		// The watchdog tripped: fail the job rather than hang its
		// worker forever. Checkpoints stay on disk — a resubmitted or
		// restarted run resumes past the progress that was made.
		s.finishJob(j, Failed, fmt.Sprintf("watchdog: no campaign progress within %v", wbudget), nil)
	case err != nil:
		s.finishJob(j, Failed, err.Error(), nil)
	case res.Interrupted && j.cancelReq.Load():
		s.removeCheckpoints(j)
		s.finishJob(j, Cancelled, "cancelled while running", nil)
	case res.Interrupted:
		// Server drain: the campaign checkpointed; park the job as
		// resumable (no terminal marker on disk) for the next process.
		s.mu.Lock()
		s.transitionMemLocked(j, Queued)
		j.cancel = nil
		s.mu.Unlock()
		s.logf("job %s interrupted by drain, checkpointed", j.id)
		s.settled(j.id, Queued)
	default:
		sum := NewSummary(res)
		if err := s.persistResult(j, res, &sum); err != nil {
			s.finishJob(j, Failed, err.Error(), nil)
			return
		}
		s.metrics.addResult(&sum)
		s.observePrediction(j, &sum)
		s.finishJob(j, Done, "", &sum)
		s.cacheStore(j, res)
	}
}

// watchJob is the per-job stuck watchdog: while the job runs, it
// samples the observable progress counters (fault attempts plus
// checkpoint activity, successes and failures alike) and, if nothing
// moved for the budget (see watchBudget), marks the job stuck and
// cancels its campaign. runJob then fails the job — a pathological
// search that stopped advancing surfaces as an error with a reason,
// instead of silently pinning a worker forever. Returns the stop
// function.
func (s *Server) watchJob(ctx context.Context, j *job, budget time.Duration) func() {
	progress := func() int64 {
		return j.attempts.Load() + j.ckptWrites.Load() + j.ckptFailures.Load()
	}
	done := make(chan struct{})
	go func() {
		tick := budget / 4
		if tick < 10*time.Millisecond {
			tick = 10 * time.Millisecond
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		last, lastChange := progress(), time.Now()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				if p := progress(); p != last {
					last, lastChange = p, time.Now()
					continue
				}
				if time.Since(lastChange) >= budget {
					j.stuckReq.Store(true)
					s.metrics.watchdogTrips.Add(1)
					s.logf("job %s: watchdog: no progress for %v, interrupting", j.id, budget)
					j.cancel()
					return
				}
			}
		}
	}()
	return func() { close(done) }
}

// jobLogger feeds campaign progress lines into the job's ring buffer
// and tracks the highest pass seen (shards report independently; the
// snapshot shows the furthest one).
func (s *Server) jobLogger(j *job) func(format string, args ...any) {
	return func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if k := strings.Index(line, "campaign: pass "); k >= 0 {
			rest := line[k+len("campaign: pass "):]
			if m := strings.IndexByte(rest, ':'); m > 0 {
				if p, err := strconv.Atoi(rest[:m]); err == nil {
					for {
						cur := j.pass.Load()
						if int64(p+1) <= cur || j.pass.CompareAndSwap(cur, int64(p+1)) {
							break
						}
					}
				}
			}
		}
		j.logs.add(line)
		s.logf("job %s: %s", j.id, line)
	}
}

// finishJob moves a job to a terminal state and records the marker on
// disk. A marker write failure is logged but does not resurrect the
// job: the in-memory state stays authoritative for this process, and
// the worst post-crash consequence is one spurious resume.
func (s *Server) finishJob(j *job, st State, errMsg string, sum *Summary) {
	s.mu.Lock()
	s.transitionLocked(j, st, errMsg)
	j.result = sum
	j.cancel = nil
	s.mu.Unlock()
	s.settled(j.id, st)
}

// transitionLocked applies a terminal FSM edge, persists the marker
// and updates the per-state counters. Illegal edges are programming
// errors and panic loudly rather than corrupting the store.
func (s *Server) transitionLocked(j *job, st State, errMsg string) {
	s.transitionMemLocked(j, st)
	j.errMsg = errMsg
	j.finished = time.Now()
	if err := s.writeJSON(filepath.Join(s.dir, j.id, "terminal.json"),
		terminalFile{State: st, Error: errMsg, Finished: j.finished}); err != nil {
		s.logf("job %s: terminal marker: %v", j.id, err)
	}
	switch st {
	case Done:
		s.metrics.jobsDone.Add(1)
	case Failed:
		s.metrics.jobsFailed.Add(1)
	case Cancelled:
		s.metrics.jobsCancelled.Add(1)
	}
	s.logf("job %s: %s", j.id, st)
}

func (s *Server) transitionMemLocked(j *job, st State) {
	if !transitions[j.state][st] {
		panic(fmt.Sprintf("service: illegal transition %s -> %s for job %s", j.state, st, j.id))
	}
	j.state = st
}

func (s *Server) settled(id string, st State) {
	if s.testJobSettled != nil {
		s.testJobSettled(id, st)
	}
}

// seedCheckpoint installs a coordinator-shipped checkpoint as the
// job's starting state, so a re-dispatched shard resumes mid-shard on
// this worker instead of restarting from zero. A checkpoint already on
// disk wins — it is this worker's own (newer or equal) progress — and
// a payload that fails validation is skipped with a log line: the
// campaign then simply starts fresh, which is always sound.
func (s *Server) seedCheckpoint(j *job, path string) {
	if len(j.spec.Checkpoint) == 0 {
		return
	}
	if _, err := s.fs.ReadFile(path); err == nil {
		return
	}
	if err := campaign.CheckCheckpointBytes(j.spec.Checkpoint); err != nil {
		s.logf("job %s: seeded checkpoint rejected, starting fresh: %v", j.id, err)
		return
	}
	if err := ioguard.WriteFileDurable(s.fs, path, j.spec.Checkpoint, 0o644); err != nil {
		s.logf("job %s: could not install seeded checkpoint, starting fresh: %v", j.id, err)
		return
	}
	s.logf("job %s: resuming from coordinator-shipped checkpoint (%d bytes)", j.id, len(j.spec.Checkpoint))
}

// persistResult durably writes result.json and the generated vectors.
// Shard jobs additionally persist merge.json — the full wire-encoded
// campaign Result the /shard-result endpoint serves for coordinator
// merging (the Summary is too lossy to merge from).
func (s *Server) persistResult(j *job, res *campaign.Result, sum *Summary) error {
	if err := s.writeJSON(filepath.Join(s.dir, j.id, "result.json"), sum); err != nil {
		return err
	}
	if j.spec.Shard != nil {
		data, err := campaign.EncodeResult(res)
		if err != nil {
			return fmt.Errorf("service: encode shard result: %w", err)
		}
		if err := ioguard.WriteFileDurable(s.fs, filepath.Join(s.dir, j.id, "merge.json"), data, 0o644); err != nil {
			return fmt.Errorf("service: persist shard result: %w", err)
		}
	}
	var buf bytes.Buffer
	if err := sim.WriteVectors(&buf, res.Tests); err != nil {
		return err
	}
	return ioguard.WriteFileDurable(s.fs, filepath.Join(s.dir, j.id, "vectors.vec"), buf.Bytes(), 0o644)
}

// removeCheckpoints drops the job's checkpoint file(s) — plain,
// per-shard and per-generation — once the job is terminal and can
// never resume.
func (s *Server) removeCheckpoints(j *job) {
	matches, _ := s.fs.Glob(filepath.Join(s.dir, j.id, "checkpoint.json*"))
	for _, m := range matches {
		s.fs.Remove(m)
	}
}

// logRing keeps the newest max progress lines.
type logRing struct {
	mu    sync.Mutex
	max   int
	lines []string
}

func (r *logRing) add(line string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lines = append(r.lines, line)
	if over := len(r.lines) - r.max; over > 0 {
		r.lines = append(r.lines[:0:0], r.lines[over:]...)
	}
}

func (r *logRing) tail() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.lines...)
}

// writeJSON durably replaces path with v as indented JSON: staged
// through a temp file, fsynced, renamed over the target, parent
// directory fsynced — what a restarted process reads back is either
// the old version or the new one, never a torn mix, even across power
// loss.
func (s *Server) writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("service: encode %s: %w", filepath.Base(path), err)
	}
	data = append(data, '\n')
	if err := ioguard.WriteFileDurable(s.fs, path, data, 0o644); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

func readJSON(fsys ioguard.FS, path string, v any) error {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return nil
}
