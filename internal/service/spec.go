package service

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"seqatpg/internal/atpg"
	"seqatpg/internal/atpg/attest"
	"seqatpg/internal/atpg/hitec"
	"seqatpg/internal/atpg/sest"
	"seqatpg/internal/campaign"
	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/predict"
	"seqatpg/internal/retime"
)

// Spec is one submitted ATPG job: a netlist plus campaign knobs. The
// zero value of every optional field selects the documented default,
// so the minimal submission is just the netlist text.
type Spec struct {
	// Name is a free-form label echoed in status output.
	Name string `json:"name,omitempty"`
	// Netlist is the circuit source text.
	Netlist string `json:"netlist"`
	// Format is "bench" (ISCAS89, the default) or "net" (the exchange
	// format written by netlist.Write).
	Format string `json:"format,omitempty"`
	// Engine selects the generator preset: "hitec" (default),
	// "attest" or "sest".
	Engine string `json:"engine,omitempty"`
	// FaultBudget is the per-fault effort allowance in gate-frame
	// evaluations; zero selects 8000 x gates, as cmd/atpg does.
	FaultBudget int64 `json:"fault_budget,omitempty"`
	// Retries is the number of 2x/4x/... escalation passes re-attacking
	// aborted faults; zero means a single pass, more than MaxRetries is
	// rejected.
	Retries int `json:"retries,omitempty"`
	// Shards > 1 runs the campaign with deterministic fault-level
	// parallelism: campaign.Execute over the campaign.PlanRoundRobin
	// plan. Zero or 1 is a plain sequential campaign; more than
	// MaxShards is rejected.
	Shards int `json:"shards,omitempty"`
	// MaxFaults truncates the collapsed fault universe; zero keeps all
	// faults.
	MaxFaults int `json:"max_faults,omitempty"`
	// FlushCycles is the reset-hold prefix; zero measures it from the
	// circuit (mandatory for retimed netlists, where it exceeds 1), more
	// than MaxFlushCycles is rejected.
	FlushCycles int `json:"flush_cycles,omitempty"`
	// Seed perturbs the engine's randomized phases.
	Seed int64 `json:"seed,omitempty"`
	// Shard, when set, restricts the job to one partition of the
	// collapsed fault universe, running it with that partition's
	// normalized campaign config (ShardSel.Plan). A fleet coordinator
	// submits one such job per shard and merges the shard results into a
	// global Result byte-identical to a single-node campaign.Execute of
	// the same plan. Incompatible with Shards > 1 (the worker runs its
	// one shard sequentially).
	Shard *ShardSel `json:"shard,omitempty"`
	// Checkpoint, when non-empty, seeds the job's campaign checkpoint
	// before the first pass: a coordinator re-dispatching a shard to a
	// new worker ships the last durable checkpoint it fetched from the
	// old one, so the new worker resumes mid-shard instead of starting
	// from zero. The payload must be a structurally valid checkpoint
	// (version + CRC, enforced at submission); the campaign fingerprint
	// check at resume time still guards against a checkpoint from a
	// different circuit, config or fault sublist.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
}

// MaxShards caps Spec.Shards and ShardSel.Count. A shard count sizes
// the partition every worker and coordinator allocates (and, for a
// local sharded job, the number of concurrent campaigns), and a spec is
// persisted at submission and re-run after a restart, so an unbounded
// count would let one request exhaust the server's memory again on
// every start.
const MaxShards = 256

// MaxRetries caps Spec.Retries. Every retry pass re-attacks each
// aborted fault at twice the previous pass's budget, and a spec is
// persisted at submission and re-run after a restart, so an unbounded
// count would let one request on all-aborting faults keep a worker busy
// pass after pass, again on every start.
const MaxRetries = 16

// MaxFlushCycles caps Spec.FlushCycles. The engine simulates the whole
// reset-hold prefix at start-up and again, as a window of that many
// frames, for every fault, and a spec is persisted at submission and
// re-run after a restart, so an unbounded prefix would let one request
// stall a worker or exhaust its memory again on every start. A measured
// prefix is bounded by the circuit (twice its DFF count plus four) and
// is not capped.
const MaxFlushCycles = 256

// ShardSel names one shard of a deterministic fault partition (see
// Plan). Coordinator and worker each derive the partition
// independently from the same netlist; feature extraction is
// deterministic, so they always agree on the sublists. Count is at most
// MaxShards.
type ShardSel struct {
	Index int `json:"index"`
	Count int `json:"count"`
	// Balanced selects the testability-aware partition: shards packed
	// to equalize predicted search cost instead of fault counts, so one
	// shard full of predicted-hard faults cannot become the straggler
	// that sets the campaign makespan.
	Balanced bool `json:"balanced,omitempty"`
}

// Plan builds the partition the selector indexes into, over a
// campaign's config and the predicted cost scores of its whole fault
// list: campaign.PlanRoundRobin by default, campaign.PlanBalanced when
// Balanced is set. Worker-side Prepare and the fabric coordinator both
// call it, which is what keeps their sublists and configs identical.
func (s ShardSel) Plan(cfg campaign.Config, scores []float64) campaign.Plan {
	if s.Balanced {
		return campaign.PlanBalanced(cfg, scores, s.Count)
	}
	return campaign.PlanRoundRobin(cfg, len(scores), s.Count)
}

func (s Spec) shardCount() int {
	if s.Shards < 1 {
		return 1
	}
	return s.Shards
}

func (s Spec) describe() string {
	name := s.Name
	if name == "" {
		name = "unnamed"
	}
	eng := s.Engine
	if eng == "" {
		eng = "hitec"
	}
	if s.Shard != nil {
		return fmt.Sprintf("%s, engine %s, shard %d/%d", name, eng, s.Shard.Index, s.Shard.Count)
	}
	return fmt.Sprintf("%s, engine %s, %d shard(s)", name, eng, s.shardCount())
}

// Prepared is the executable form of a Spec: the parsed circuit, the
// fault list and the campaign configuration, without the paths and
// hooks the server wires in per run. Preparing the same Spec twice
// yields an identical campaign, which is what lets a restarted server
// resume against the checkpoint fingerprint the previous process
// recorded.
type Prepared struct {
	Circuit  *netlist.Circuit
	Faults   []fault.Fault
	Campaign campaign.Config
	Shards   int
	// Scores are the predicted cost scores of Faults, index for index
	// (structural features and the default predictor only). They feed
	// the cost estimates below and balanced shard placement.
	Scores []float64
	// CostEstimate is the predicted charged effort of this job in gate
	// evaluations: the sum over its (post-shard-selection) fault list of
	// per-fault predictions, each clamped to the retry ladder's final
	// budget. Derived from structural features only — no reachability
	// analysis — so preparing a submission stays cheap. Admission uses
	// it to turn queue depth into a drain time; it never influences any
	// verdict.
	CostEstimate int64
	// MaxFaultCost is the largest clamped per-fault prediction in the
	// job — the budget scale of the single hardest fault, which is what
	// bounds how long the campaign can legitimately go between
	// observable progress events.
	MaxFaultCost int64
}

// Prepare validates a Spec and builds its executable form. It is a
// pure function of the Spec, which is what lets a Server memoize the
// facts of a successful call (see specMemo).
func Prepare(spec Spec) (*Prepared, error) {
	if strings.TrimSpace(spec.Netlist) == "" {
		return nil, fmt.Errorf("service: empty netlist")
	}
	if spec.Shards < 0 || spec.Shards > MaxShards {
		return nil, fmt.Errorf("service: shards %d out of range [0, %d]", spec.Shards, MaxShards)
	}
	if spec.Retries < 0 || spec.Retries > MaxRetries {
		return nil, fmt.Errorf("service: retries %d out of range [0, %d]", spec.Retries, MaxRetries)
	}
	if spec.FlushCycles < 0 || spec.FlushCycles > MaxFlushCycles {
		return nil, fmt.Errorf("service: flush_cycles %d out of range [0, %d]", spec.FlushCycles, MaxFlushCycles)
	}
	if spec.MaxFaults < 0 {
		return nil, fmt.Errorf("service: negative max_faults %d", spec.MaxFaults)
	}
	if spec.Shard != nil {
		if spec.Shards > 1 {
			return nil, fmt.Errorf("service: shard selector and shards=%d are mutually exclusive", spec.Shards)
		}
		if spec.Shard.Count < 1 || spec.Shard.Count > MaxShards {
			return nil, fmt.Errorf("service: shard count %d out of range [1, %d]", spec.Shard.Count, MaxShards)
		}
		if spec.Shard.Index < 0 || spec.Shard.Index >= spec.Shard.Count {
			return nil, fmt.Errorf("service: shard index %d out of range [0, %d)", spec.Shard.Index, spec.Shard.Count)
		}
	}
	if len(spec.Checkpoint) > 0 {
		if spec.Shard == nil {
			return nil, fmt.Errorf("service: checkpoint seeding requires a shard selector")
		}
		if err := campaign.CheckCheckpointBytes(spec.Checkpoint); err != nil {
			return nil, fmt.Errorf("service: seeded checkpoint: %w", err)
		}
	}
	var c *netlist.Circuit
	var err error
	switch spec.Format {
	case "", "bench":
		c, err = netlist.ReadBench(strings.NewReader(spec.Netlist))
	case "net":
		c, err = netlist.Read(strings.NewReader(spec.Netlist))
	default:
		return nil, fmt.Errorf("service: unknown netlist format %q (want bench or net)", spec.Format)
	}
	if err != nil {
		return nil, fmt.Errorf("service: netlist: %w", err)
	}
	flush := spec.FlushCycles
	if flush == 0 {
		if flush, err = retime.FlushLength(c); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		if flush < 1 {
			flush = 1
		}
	}
	budget := spec.FaultBudget
	if budget == 0 {
		budget = 8000 * int64(c.NumGates())
	}
	var ecfg atpg.Config
	switch spec.Engine {
	case "", "hitec":
		ecfg = hitec.DefaultConfig(flush, budget)
	case "attest":
		ecfg = attest.DefaultConfig(flush, budget)
	case "sest":
		ecfg = sest.DefaultConfig(flush, budget)
	default:
		return nil, fmt.Errorf("service: unknown engine %q (want hitec, attest or sest)", spec.Engine)
	}
	if spec.Seed != 0 {
		ecfg.Seed = spec.Seed
	}
	if err := ecfg.Validate(); err != nil {
		return nil, err
	}
	faults := fault.CollapsedUniverse(c)
	if spec.MaxFaults > 0 && spec.MaxFaults < len(faults) {
		faults = faults[:spec.MaxFaults]
	}
	scores, err := predictScores(c, faults)
	if err != nil {
		return nil, fmt.Errorf("service: cost prediction: %w", err)
	}
	ccfg := campaign.Config{Engine: ecfg, Retries: spec.Retries}
	if spec.Shard != nil {
		// This worker's shard of the plan the coordinator builds: its
		// sublist and normalized config must match exactly, or the
		// merged fleet result would diverge from a single-node run.
		part := spec.Shard.Plan(ccfg, scores)[spec.Shard.Index]
		subScores := make([]float64, len(part.Indices))
		for i, gi := range part.Indices {
			subScores[i] = scores[gi]
		}
		faults, scores, ccfg = part.Sublist(faults), subScores, part.Config
	}
	if err := ccfg.Validate(); err != nil {
		return nil, err
	}
	p := &Prepared{Circuit: c, Faults: faults, Campaign: ccfg, Shards: spec.shardCount(), Scores: scores}
	for _, sc := range scores {
		ev := predict.ClampEval(sc, ecfg.FaultBudget, ccfg.Retries)
		if p.CostEstimate <= math.MaxInt64-ev {
			p.CostEstimate += ev
		} else {
			p.CostEstimate = math.MaxInt64
		}
		if ev > p.MaxFaultCost {
			p.MaxFaultCost = ev
		}
	}
	return p, nil
}

// predictScores runs structural-only feature extraction (no
// reachability analysis — submission-time cost must stay linear in the
// circuit) and scores every fault with the default predictor. The
// result is a pure, deterministic function of (circuit, fault list):
// that determinism is what lets a coordinator and its workers derive
// identical balanced partitions without exchanging them.
func predictScores(c *netlist.Circuit, faults []fault.Fault) ([]float64, error) {
	fs, err := predict.Extract(c, faults, predict.Options{})
	if err != nil {
		return nil, err
	}
	p := predict.Default()
	scores := make([]float64, len(faults))
	for i := range faults {
		scores[i] = p.Score(fs, i)
	}
	return scores, nil
}

// Summary is the JSON-safe digest of a campaign.Result: everything
// status queries and metrics need, without the raw vectors (those are
// served separately) or the traversed-state set (only its size).
type Summary struct {
	Total     int `json:"total"`
	Detected  int `json:"detected"`
	Redundant int `json:"redundant"`
	Aborted   int `json:"aborted"`
	Crashed   int `json:"crashed"`
	atpg.Counters
	StatesTraversed int     `json:"states_traversed"`
	FC              float64 `json:"fc"`
	FE              float64 `json:"fe"`
	Passes          int     `json:"passes"`
	Resumed         bool    `json:"resumed"`
	Interrupted     bool    `json:"interrupted"`
	// Degraded records that the final run finished with at least one
	// failed checkpoint write; the fault verdicts are unaffected (they
	// never depend on persistence), but resume coverage had gaps.
	Degraded           bool `json:"degraded,omitempty"`
	CheckpointFailures int  `json:"checkpoint_failures,omitempty"`
	Tests              int  `json:"tests"`
	CrashRecords       int  `json:"crash_records"`
}

// NewSummary digests a campaign result.
func NewSummary(res *campaign.Result) Summary {
	s := res.Stats
	return Summary{
		Total:              s.Total,
		Detected:           s.Detected,
		Redundant:          s.Redundant,
		Aborted:            s.Aborted,
		Crashed:            s.Crashed,
		Counters:           s.Counters,
		StatesTraversed:    len(s.StatesTraversed),
		FC:                 s.FC(),
		FE:                 s.FE(),
		Passes:             res.Passes,
		Resumed:            res.Resumed,
		Interrupted:        res.Interrupted,
		Degraded:           res.Degraded,
		CheckpointFailures: res.CheckpointFailures,
		Tests:              len(res.Tests),
		CrashRecords:       len(res.Crashes),
	}
}

// counters are the service-level metrics: live gauges come from the
// store under its mutex, everything here is a monotone counter fed
// from campaign hooks and job completions.
type counters struct {
	attempts      atomic.Int64
	ckptWrites    atomic.Int64
	ckptFailures  atomic.Int64
	rejected      atomic.Int64
	quarantined   atomic.Int64
	watchdogTrips atomic.Int64
	jobsDone      atomic.Int64
	jobsFailed    atomic.Int64
	jobsCancelled atomic.Int64
	detected      atomic.Int64
	redundant     atomic.Int64
	aborted       atomic.Int64
	crashed       atomic.Int64
	effort        atomic.Int64
	backtracks    atomic.Int64
	tests         atomic.Int64
	// Prediction accuracy, fed from cold-run completions: the summed
	// predicted effort of done jobs (compare against the effort
	// counter, its actual counterpart) and how many jobs landed over
	// or under their prediction.
	predictedEvals   atomic.Int64
	predictOverruns  atomic.Int64
	predictUnderruns atomic.Int64
}

// addResult folds a completed job's final stats into the per-outcome
// and effort counters; this is what makes /metrics reconcile exactly
// with the sum of finished jobs' campaign.Result stats.
func (c *counters) addResult(sum *Summary) {
	c.detected.Add(int64(sum.Detected))
	c.redundant.Add(int64(sum.Redundant))
	c.aborted.Add(int64(sum.Aborted))
	c.crashed.Add(int64(sum.Crashed))
	c.effort.Add(sum.Effort)
	c.backtracks.Add(sum.Backtracks)
	c.tests.Add(int64(sum.Tests))
}
