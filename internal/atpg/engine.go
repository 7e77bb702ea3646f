package atpg

import (
	"fmt"
	"reflect"
	"sort"

	"seqatpg/internal/fault"
	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// Config tunes an engine run. The three paper engines are presets over
// this structure (see the hitec, attest and sest sub-packages). New
// validates the configuration up front (see Validate); the only silent
// coercions are FlushCycles < 1 -> 1 and MaxBackSteps == 0 -> 30.
type Config struct {
	Name string
	// MaxFrames caps the forward time-frame window for propagation. It
	// must be at least 1; there is no default.
	MaxFrames int
	// MaxBackSteps caps the backward state-justification depth. Zero
	// selects the default of 30; negative values are rejected.
	MaxBackSteps int
	// BacktrackLimit caps PODEM backtracks per search. Zero means
	// unlimited (the effort budget still bounds the search); negative
	// values are rejected.
	BacktrackLimit int
	// FaultBudget is the effort (in gate-evaluations) each fault may
	// consume before being aborted.
	FaultBudget int64
	// TotalBudget bounds the whole run; 0 means unlimited. When it runs
	// out the remaining faults are aborted.
	TotalBudget int64
	// RandomSequences/RandomLength configure the random preprocessing
	// phase (Attest-style); zero disables it.
	RandomSequences int
	RandomLength    int
	// Learning enables SEST-style search-state learning: proven-
	// unjustifiable state cubes are cached and pruned, and justified
	// states are reused.
	Learning bool
	// SharedLearning (requires Learning) promotes the achieved-state
	// cache to a cross-fault store: good-machine justification sequences
	// are reused across every fault in the run. Reuse is sound — a
	// cached sequence is re-verified (charged) on the composite machine
	// before it is accepted — so under generous budgets verdicts are
	// unchanged and only effort drops. Because a hit does change the
	// search trajectory, the flag participates in checkpoint
	// fingerprints and is switched off by sharded-campaign
	// normalization (like Learning).
	SharedLearning bool
	// LearnCap bounds each learning store (achieved states, failed
	// cubes, shared lemmas and per-search blocking cubes) to this many
	// entries, evicting oldest first at fault boundaries. Zero selects
	// the default of 4096; negative values are rejected.
	LearnCap int
	// ConflictLearning turns PODEM into a conflict-driven search:
	// conflicts are traced through the implication graph to blocking
	// cubes over the deciding variables, an assignment that completes a
	// cube is unwound before its simulation is paid for (backjumping),
	// and Luby restarts abandon the decision stack but keep the cubes.
	// Cubes only cover refuted assignments, so verdicts are preserved
	// under generous budgets; as search tuning the knob is left out of
	// Canonical, and unlike Learning it survives sharded-campaign
	// normalization because each store is scoped to one fault's search.
	ConflictLearning bool
	// NoFaultDrop disables cross-fault test dropping: a test generated
	// for one fault is not fault-simulated against the rest of the
	// list, so every fault is attacked directly. Combined with
	// Learning off and TotalBudget 0 this makes each fault's outcome a
	// pure function of (circuit, config, fault) — independent of which
	// other faults share the run — which is what lets a sharded
	// campaign partition the fault list arbitrarily and still merge to
	// identical verdicts (see campaign.Plan). It is incompatible
	// with the random preprocessing phase, whose only effect is
	// dropping faults.
	NoFaultDrop bool
	// FlushCycles is how long the reset line is held to initialize the
	// machine (1 for non-retimed circuits; retimed circuits need their
	// flush prefix). Values < 1 are coerced to 1.
	FlushCycles int
	Seed        int64
}

// unboundFields are the Config fields Canonical leaves out: search
// tuning that keeps verdicts under generous budgets, so a checkpoint
// resumes under either setting.
var unboundFields = map[string]bool{"ConflictLearning": true}

// Canonical is the config's identity encoding, which campaign
// fingerprints and result-cache digests hash: the engine-v1 tag (a
// format change takes a new one), then each non-zero field outside
// unboundFields in name order as name=value, strings quoted so a Name
// cannot fake a field boundary. A field that is zero in every run can
// therefore be deleted without moving any fingerprint.
func (c Config) Canonical() string {
	v := reflect.ValueOf(c)
	fields := reflect.VisibleFields(v.Type())
	sort.Slice(fields, func(i, j int) bool { return fields[i].Name < fields[j].Name })
	b := []byte("engine-v1")
	for _, f := range fields {
		if fv := v.FieldByIndex(f.Index); !unboundFields[f.Name] && !fv.IsZero() {
			b = fmt.Appendf(b, " %s=%#v", f.Name, fv.Interface())
		}
	}
	return string(b)
}

// Validate rejects configurations that would otherwise start a silent
// unbounded or degenerate run: negative effort budgets, a forward
// window smaller than one frame, and negative backtrack or
// justification limits. FlushCycles < 1 is deliberately NOT an error —
// New coerces it to 1 so callers may leave it zero for non-retimed
// circuits.
func (c Config) Validate() error {
	switch {
	case c.FaultBudget < 0:
		return fmt.Errorf("atpg: config %q: negative FaultBudget %d", c.Name, c.FaultBudget)
	case c.TotalBudget < 0:
		return fmt.Errorf("atpg: config %q: negative TotalBudget %d", c.Name, c.TotalBudget)
	case c.MaxFrames < 1:
		return fmt.Errorf("atpg: config %q: MaxFrames %d, want >= 1", c.Name, c.MaxFrames)
	case c.MaxBackSteps < 0:
		return fmt.Errorf("atpg: config %q: negative MaxBackSteps %d", c.Name, c.MaxBackSteps)
	case c.BacktrackLimit < 0:
		return fmt.Errorf("atpg: config %q: negative BacktrackLimit %d (use 0 for unlimited)", c.Name, c.BacktrackLimit)
	case c.RandomSequences < 0:
		return fmt.Errorf("atpg: config %q: negative RandomSequences %d", c.Name, c.RandomSequences)
	case c.RandomLength < 0:
		return fmt.Errorf("atpg: config %q: negative RandomLength %d", c.Name, c.RandomLength)
	case c.NoFaultDrop && c.RandomSequences > 0:
		return fmt.Errorf("atpg: config %q: NoFaultDrop with RandomSequences %d (the random phase only drops faults, so it would silently do nothing)", c.Name, c.RandomSequences)
	case c.SharedLearning && !c.Learning:
		return fmt.Errorf("atpg: config %q: SharedLearning without Learning (the shared cache is an extension of the per-fault learning store)", c.Name)
	case c.LearnCap < 0:
		return fmt.Errorf("atpg: config %q: negative LearnCap %d (use 0 for the default bound)", c.Name, c.LearnCap)
	}
	return nil
}

// Counters are the monotone effort counters of a run: they only grow
// while it searches, so a campaign sums them across passes, shards and
// snapshots, and a cancelled fault attempt rolls them back as a unit.
// The JSON tags are the field names of the checkpoint snapshot, the
// shard-result wire format and the service's job summary.
type Counters struct {
	Unconfirmed int   `json:"unconfirmed"`
	Effort      int64 `json:"effort"` // deterministic CPU proxy: gate evaluations actually performed
	Backtracks  int64 `json:"backtracks"`
	// LearnHits/LearnPrunes count reuses of justified states and prunes
	// via proven-unjustifiable cubes (SEST-style engines only).
	LearnHits   int64 `json:"learn_hits"`
	LearnPrunes int64 `json:"learn_prunes"`
	// LearnedCubes/Backjumps/Restarts count the conflict-driven search
	// events (ConflictLearning engines only): blocking cubes stored,
	// non-chronological backjumps taken, and Luby restarts fired.
	LearnedCubes int64 `json:"learned_cubes"`
	Backjumps    int64 `json:"backjumps"`
	Restarts     int64 `json:"restarts"`
}

// Add sums o into c.
func (c *Counters) Add(o Counters) {
	c.Unconfirmed += o.Unconfirmed
	c.Effort += o.Effort
	c.Backtracks += o.Backtracks
	c.LearnHits += o.LearnHits
	c.LearnPrunes += o.LearnPrunes
	c.LearnedCubes += o.LearnedCubes
	c.Backjumps += o.Backjumps
	c.Restarts += o.Restarts
}

// Negative reports whether any counter is below zero, which no run can
// produce: a decoder that meets one holds corrupt or hostile input.
func (c Counters) Negative() bool {
	return c.Unconfirmed < 0 || c.Effort < 0 || c.Backtracks < 0 || c.LearnHits < 0 ||
		c.LearnPrunes < 0 || c.LearnedCubes < 0 || c.Backjumps < 0 || c.Restarts < 0
}

// Stats aggregates the run counters the experiments report.
type Stats struct {
	Total     int `json:"total"`
	Detected  int `json:"detected"`
	Redundant int `json:"redundant"`
	Aborted   int `json:"aborted"`
	// Crashed counts faults whose search panicked; the panic is
	// recovered, recorded (see FaultCrash) and the run continues.
	Crashed int `json:"crashed"`
	Counters
	// StatesTraversed is the set of fully specified states the
	// generator visited: the good-circuit states of every applied
	// sequence (the paper's "#states HITEC trav" instrument).
	StatesTraversed map[uint64]bool `json:"-"`
}

// Tally counts one fault verdict: Aborted, and any outcome it does not
// know, count as aborted.
func (s *Stats) Tally(o Outcome) {
	switch o {
	case Detected:
		s.Detected++
	case Redundant:
		s.Redundant++
	case Crashed:
		s.Crashed++
	default:
		s.Aborted++
	}
}

// FC returns fault coverage (% detected).
func (s Stats) FC() float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.Detected) / float64(s.Total)
}

// FE returns fault efficiency (% detected or proven redundant).
func (s Stats) FE() float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.Detected+s.Redundant) / float64(s.Total)
}

// Engine is one ATPG run over one circuit.
type Engine struct {
	c   *netlist.Circuit
	cfg Config
	// soa is the circuit view every window of this engine runs on: the
	// one the fault simulator builds, shared read-only.
	soa   *netlist.SoA
	scoap *SCOAP
	// obsDist approximates per-gate distance to a primary output.
	obsDist []int

	fsim *fault.Simulator
	// gsim is a good-machine simulator over soa, for the reset flush and
	// the states-traversed trace of accepted tests.
	gsim        *sim.Simulator
	flushPrefix [][]sim.Val

	remaining   int64 // per-fault budget remaining
	totalLeft   int64
	outOfBudget bool
	// The learning stores, each a journal so fault-boundary rollback,
	// LearnCap eviction and snapshots treat them alike. failedCubes
	// holds per-fault ("fault|cube") unjustifiable cubes; achieved maps
	// a fault-scoped concrete state to its vectors from reset.
	failedCubes journal[string, struct{}]
	achieved    journal[achievedKey, [][]sim.Val]
	// lemmas is the shared learned-cube store fed by conflict analysis
	// (SharedLearning + ConflictLearning): good-machine forced-next-state
	// facts, sound under every fault, each with its cube parsed into
	// literals once (addLemma), so eviction and rollback bound the
	// parsed copies too.
	lemmas journal[LearnedCube, []cubeLit]
	// cdcl holds the reusable cube stores and conflict-analysis scratch
	// of the conflict-driven search (nil without ConflictLearning).
	cdcl *cubeStores

	// cancelDone is the active run's ctx.Done(); cancelled latches once
	// the channel closes so every subsequent charge fails fast.
	cancelDone <-chan struct{}
	cancelled  bool
	// pollsToCancel > 0 latches cancellation that many checkCancel
	// polls from now; only tests set it.
	pollsToCancel int

	// fsimWorkers is the worker count handed to DetectsParallel by the
	// fault-drop passes; see SetFaultSimWorkers.
	fsimWorkers int

	// backjump and restarts (which needs backjump) are the conflict-
	// driven search's upper rungs, on with ConflictLearning; oblivious
	// adds the byte-identical from-scratch reference sweep to every
	// window simulation. Only tests change them.
	backjump, restarts, oblivious bool

	// TestHook, when set, is called at the start of every fault search
	// with the fault's list index. It exists so tests (and the campaign
	// package's crash-isolation tests) can inject failures; it is not
	// part of the run's fingerprinted configuration.
	TestHook func(index int, f fault.Fault)

	// TestCubeHook, when set, observes every freshly learned blocking
	// cube with its refuting line and claimed forced value, so the
	// differential tests can replay the cube on a fresh window and check
	// the implication from scratch. Test instrumentation only.
	TestCubeHook func(rec CubeRecord)

	Stats Stats
}

// New builds an engine; the circuit must be valid and have a reset
// line, and the configuration must pass Config.Validate.
func New(c *netlist.Circuit, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if c.ResetPI < 0 {
		return nil, fmt.Errorf("atpg: circuit %s has no reset line", c.Name)
	}
	fsim, err := fault.NewSimulator(c)
	if err != nil {
		return nil, err
	}
	if cfg.MaxBackSteps == 0 {
		cfg.MaxBackSteps = 30
	}
	if cfg.FlushCycles < 1 {
		cfg.FlushCycles = 1
	}
	if cfg.LearnCap == 0 {
		cfg.LearnCap = 4096
	}
	e := &Engine{
		c:        c,
		cfg:      cfg,
		soa:      fsim.SoA(),
		scoap:    computeSCOAP(c),
		obsDist:  computeObsDist(c),
		fsim:     fsim,
		gsim:     sim.NewSimulatorSoA(fsim.SoA()),
		backjump: cfg.ConflictLearning,
		restarts: cfg.ConflictLearning,
	}
	if cfg.ConflictLearning {
		e.cdcl = newCubeStores(len(c.DFFs), len(c.PIs), cfg.MaxFrames, cfg.LearnCap)
	}
	e.Stats.StatesTraversed = map[uint64]bool{}
	if err := e.computeFlush(); err != nil {
		return nil, err
	}
	return e, nil
}

// SetFaultSimWorkers sets how many workers the engine's fault-drop
// passes hand to fault.Simulator.DetectsParallel; values below 2 keep
// the serial path. DetectsParallel is worker-count-invariant, so the
// knob cannot change any run's outcomes or stats — which is why it is
// a setter rather than a Config field: Config is fingerprinted into
// campaign checkpoints, and a machine-local tuning knob must not
// invalidate them.
func (e *Engine) SetFaultSimWorkers(n int) { e.fsimWorkers = n }

// computeObsDist is a reverse BFS from the primary outputs.
func computeObsDist(c *netlist.Circuit) []int {
	const inf = 1 << 20
	dist := make([]int, len(c.Gates))
	for i := range dist {
		dist[i] = inf
	}
	var queue []int
	for _, id := range c.POs {
		dist[id] = 0
		queue = append(queue, id)
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, f := range c.Gates[id].Fanin {
			if dist[f] > dist[id]+1 {
				dist[f] = dist[id] + 1
				queue = append(queue, f)
			}
		}
	}
	return dist
}

// computeFlush derives the reset-hold prefix.
func (e *Engine) computeFlush() error {
	s := e.gsim
	s.PowerUp()
	vec := make([]sim.Val, len(e.c.PIs))
	for i, id := range e.c.PIs {
		if id == e.c.ResetPI {
			vec[i] = sim.V1
		} else {
			vec[i] = sim.V0
		}
	}
	e.flushPrefix = nil
	for k := 0; k < e.cfg.FlushCycles; k++ {
		if _, err := s.Step(vec); err != nil {
			return err
		}
		e.flushPrefix = append(e.flushPrefix, append([]sim.Val(nil), vec...))
	}
	return nil
}

// checkCancel polls the active run's context; once cancellation is
// observed it latches, so searches wind down at the next charge.
func (e *Engine) checkCancel() bool {
	if e.cancelled {
		return true
	}
	if e.pollsToCancel > 0 {
		e.pollsToCancel--
		e.cancelled = e.pollsToCancel == 0
	}
	if e.cancelDone != nil {
		select {
		case <-e.cancelDone:
			e.cancelled = true
		default:
		}
	}
	return e.cancelled
}

// charge burns effort, measured in gate evaluations actually performed
// (the event-driven window reports exactly what it touched, so Effort
// is an honest CPU proxy); false means a budget ran out (or the run was
// cancelled — a cancelled charge burns nothing, so the rollback to the
// last fault boundary stays exact).
func (e *Engine) charge(evals int64) bool {
	if e.checkCancel() {
		return false
	}
	return e.spend(evals)
}

// spend is charge's accounting without the cancellation poll, for work
// that has already run to completion; false means a budget ran out.
func (e *Engine) spend(evals int64) bool {
	e.Stats.Effort += evals
	e.remaining -= evals
	if e.cfg.TotalBudget > 0 {
		e.totalLeft -= evals
		if e.totalLeft <= 0 {
			e.outOfBudget = true
			return false
		}
	}
	return e.remaining > 0
}

// newWin builds a k-frame window wired to the engine's configuration
// (oblivious reference mode when the test-only oblivious field is set).
func (e *Engine) newWin(k int, flt *fault.Fault) *window {
	w := newWindow(e.soa, k, flt)
	w.oblivious = e.oblivious
	return w
}

// Outcome classifies the result of test generation for one fault.
type Outcome int

// Per-fault outcomes.
const (
	// Aborted: the budget, backtrack limit or window cap ran out first.
	Aborted Outcome = iota
	// Detected: a confirmed test sequence was generated (or a test for
	// another fault covered it during fault dropping).
	Detected
	// Redundant: proven untestable in any sequential context.
	Redundant
	// Crashed: the search for this fault panicked; the panic was
	// recovered and recorded (see Result.Crashes) and the run went on.
	Crashed
)

// String returns "aborted", "detected", "redundant" or "crashed".
func (o Outcome) String() string {
	switch o {
	case Detected:
		return "detected"
	case Redundant:
		return "redundant"
	case Crashed:
		return "crashed"
	default:
		return "aborted"
	}
}

// Valid reports whether o is one of the four outcomes.
func (o Outcome) Valid() bool { return o >= Aborted && o <= Crashed }

// Verdict is a fault's status in a run: 0 while live, then 1
// detected, 2 redundant, 3 aborted or 4 crashed. Snapshot.Status holds
// one Verdict per fault, and checkpoints store each as that digit.
type Verdict byte

const (
	verdictLive Verdict = iota
	verdictDetected
	verdictRedundant
	verdictAborted
	verdictCrashed
)

// verdictOutcome is the one code → Outcome table; a live fault reads
// as aborted.
var verdictOutcome = [...]Outcome{verdictLive: Aborted, verdictDetected: Detected,
	verdictRedundant: Redundant, verdictAborted: Aborted, verdictCrashed: Crashed}

// outcomeVerdict is the same table read the other way: the code that
// resolves a fault as an Outcome.
var outcomeVerdict = [...]Verdict{Aborted: verdictAborted, Detected: verdictDetected,
	Redundant: verdictRedundant, Crashed: verdictCrashed}

// Valid reports whether v is one of the five codes.
func (v Verdict) Valid() bool { return int(v) < len(verdictOutcome) }

// Outcome maps the code to its Outcome; an invalid code reads as
// Aborted.
func (v Verdict) Outcome() Outcome {
	if !v.Valid() {
		return Aborted
	}
	return verdictOutcome[v]
}

// generate runs the per-fault flow: redundancy pre-pass, then detection
// over growing windows with backward justification of the required
// excitation state.
func (e *Engine) generate(f *fault.Fault) (Outcome, [][]sim.Val) {
	// Sound redundancy pre-pass: one frame, free state, observing both
	// POs and next-state lines. Exhaustion without a solution means the
	// fault is untestable in any sequential context. The pre-pass gets
	// a small backtrack allowance: genuinely redundant faults exhaust
	// their decision tree quickly; everything else proceeds to the real
	// search.
	w := e.newWin(1, f)
	pre := &detectProblem{e: e, extendedObs: true}
	preLimit := 256
	if e.cfg.BacktrackLimit > 0 && e.cfg.BacktrackLimit < preLimit {
		preLimit = e.cfg.BacktrackLimit
	}
	// One cube store per fault, shared by the pre-pass and every
	// detection window: an excitation-conflict cube proves the fault
	// cannot be excited under those decision values, which holds in
	// every window size (the support walk never leaves frame 0).
	var ddb *cubeDB
	if e.cfg.ConflictLearning {
		ddb = e.cdcl.acquire()
		defer e.cdcl.release(ddb)
	}
	outcome := e.podem(w, pre, preLimit, ddb, func() bool { return true })
	if outcome == searchExhausted {
		return Redundant, nil
	}

	// The composite (good ∥ faulty) machine's post-flush state: the
	// justification terminal. Both machines see the same reset-hold
	// prefix; bits where they disagree or stay unknown cannot serve as
	// justification anchors.
	faultyReset := e.faultyFlushState(f)

	for k := 1; k <= e.cfg.MaxFrames; k++ {
		w := e.newWin(k, f)
		prob := &detectProblem{e: e}
		var final [][]sim.Val
		out := e.podem(w, prob, e.cfg.BacktrackLimit, ddb, func() bool {
			// stateView is a live view, safe here: the window is
			// suspended for the whole (synchronous) justification.
			cube := w.stateView()
			prefix, ok := e.justify(f, faultyReset, cube, e.cfg.MaxBackSteps, map[string]bool{})
			if !ok {
				return false // enumerate another excitation/propagation
			}
			seq := append([][]sim.Val{}, e.flushPrefix...)
			seq = append(seq, prefix...)
			seq = append(seq, w.vectors()...)
			// Confirm with the fault simulator before accepting; the
			// single-fault fast path stops at the first detecting frame
			// instead of spinning up a 63-wide batch.
			det, err := e.fsim.DetectsOne(seq, *f)
			if err != nil || !det {
				e.Stats.Unconfirmed++
				return false
			}
			final = seq
			return true
		})
		switch out {
		case searchStopped:
			return Detected, final
		case searchAborted:
			return Aborted, nil
		}
		// Exhausted: effect may need more frames to reach an output.
	}
	return Aborted, nil
}

// cubeKey renders a state cube canonically.
func cubeKey(cube []sim.Val) string {
	b := make([]byte, len(cube))
	for i, v := range cube {
		b[i] = "01X"[v]
	}
	return string(b)
}

// compatible reports whether the concrete (possibly partially unknown)
// reset state satisfies the cube: every specified cube bit must be a
// known, equal bit of the state.
func compatible(cube, state []sim.Val) bool {
	for i, v := range cube {
		if v == sim.VX {
			continue
		}
		if state[i] != v {
			return false
		}
	}
	return true
}

// fullySpecified reports whether the cube pins every state bit, and
// packs it into the key of the achieved-state store. A cube wider than
// sim.MaxStateBits does not fit the key and reports false, so
// state-keyed reuse is skipped for it.
func fullySpecified(cube []sim.Val) (uint64, bool) {
	if len(cube) > sim.MaxStateBits {
		return 0, false
	}
	var bits uint64
	for i, v := range cube {
		switch v {
		case sim.VX:
			return 0, false
		case sim.V1:
			bits |= 1 << uint(i)
		}
	}
	return bits, true
}

// faultyFlushState applies the reset-hold prefix to the composite
// machine (good ∥ faulty) from all-X and returns the per-DFF composite
// state. Justification anchors only on bits where both rails agree.
func (e *Engine) faultyFlushState(f *fault.Fault) []V5 {
	k := len(e.flushPrefix)
	w := e.newWin(k, f)
	for t, vec := range e.flushPrefix {
		copy(w.piVals[t], vec)
	}
	e.charge(int64(w.simulate()))
	out := make([]V5, len(e.c.DFFs))
	for i := range out {
		out[i] = w.dLine(k-1, i)
	}
	return out
}

// compatible5 reports whether the composite state satisfies the cube on
// both rails.
func compatible5(cube []sim.Val, state []V5) bool {
	for i, v := range cube {
		if v == sim.VX {
			continue
		}
		if state[i].G != v || state[i].F != v {
			return false
		}
	}
	return true
}

// justify searches backward for an input sequence that drives the
// composite machine (the circuit under the target fault f, never nil)
// from the post-reset state into the cube. Returns the vectors in forward
// application order, reset prefix NOT included. Learning caches are
// keyed per fault — a cube justifiable in the good machine need not be
// justifiable under a different fault — but with SharedLearning the
// good-machine ("" key) achieved sequences are additionally consulted
// for every fault, each after a charged composite-machine verification
// replay.
func (e *Engine) justify(f *fault.Fault, faultyReset []V5, cube []sim.Val, depth int, onPath map[string]bool) ([][]sim.Val, bool) {
	if compatible5(cube, faultyReset) {
		return nil, true
	}
	fkey := "" // only the learning stores read it
	if e.cfg.Learning {
		fkey = f.String() + "|"
	}
	if bits, ok := fullySpecified(cube); ok {
		// Learning: a state we already know how to reach (under this
		// fault).
		if e.cfg.Learning {
			if vecs, ok := e.achieved.m[achievedKey{fkey, bits}]; ok {
				e.Stats.LearnHits++
				return vecs, true
			}
			if e.cfg.SharedLearning {
				if vecs, ok := e.achieved.m[achievedKey{"", bits}]; ok && e.verifyJustification(f, vecs, cube) {
					e.Stats.LearnHits++
					e.achieved.add(achievedKey{fkey, bits}, vecs)
					return vecs, true
				}
			}
		}
	}
	if depth == 0 {
		return nil, false
	}
	key := cubeKey(cube)
	if onPath[key] {
		return nil, false // cycle in the justification path
	}
	if e.cfg.Learning && e.failedCubes.has(fkey+key) {
		e.Stats.LearnPrunes++
		return nil, false
	}
	// Learning: reuse any achieved concrete state compatible with the
	// cube — own-fault entries directly, shared good-machine entries
	// only after composite verification.
	if e.cfg.Learning {
		for _, st := range e.achieved.order {
			if st.fault == fkey {
				stVals := unpackState(st.bits, len(cube))
				if compatible(cube, stVals) {
					e.Stats.LearnHits++
					return e.achieved.m[st], true
				}
				continue
			}
			if !e.cfg.SharedLearning || st.fault != "" {
				continue
			}
			stVals := unpackState(st.bits, len(cube))
			if !compatible(cube, stVals) {
				continue
			}
			if vecs := e.achieved.m[st]; e.verifyJustification(f, vecs, cube) {
				e.Stats.LearnHits++
				e.achieved.add(achievedKey{fkey, st.bits}, vecs)
				return vecs, true
			}
		}
	}
	onPath[key] = true
	defer delete(onPath, key)

	targets := make([]targetLine, 0, len(cube))
	for i, v := range cube {
		if v == sim.VX {
			continue
		}
		targets = append(targets, targetLine{bit: i, val: v})
	}
	w := e.newWin(1, f)
	prob := &justifyProblem{targets: targets}
	// Each justification step gets a cleared cube store (its conflicts
	// are relative to this step's targets); the shared lemma store
	// seeds it with every cross-fault cube contradicting a target.
	var jdb *cubeDB
	if e.cfg.ConflictLearning {
		jdb = e.cdcl.acquire()
		defer e.cdcl.release(jdb)
		if e.cfg.SharedLearning {
			e.seedLemmas(jdb, targets)
		}
	}
	var result [][]sim.Val
	out := e.podem(w, prob, e.cfg.BacktrackLimit, jdb, func() bool {
		// stateView is a live view, safe here: the recursive call reads
		// it synchronously while this window is suspended.
		prev := w.stateView()
		vec := w.vectors()[0]
		sub, ok := e.justify(f, faultyReset, prev, depth-1, onPath)
		if !ok {
			return false
		}
		result = append(append([][]sim.Val{}, sub...), vec)
		// Learning: remember how to reach this cube's concrete states.
		if e.cfg.Learning {
			if bits, full := fullySpecified(cube); full {
				e.achieved.add(achievedKey{fkey, bits}, result)
				if e.cfg.SharedLearning {
					// The composite machine reached bits on both rails,
					// so the same vectors reach it on the good machine
					// alone — publish to the shared ("" key) store.
					// Consumers under other faults re-verify before use.
					e.achieved.add(achievedKey{"", bits}, result)
				}
			}
		}
		return true
	})
	if out == searchStopped {
		return result, true
	}
	if out == searchExhausted && e.cfg.Learning {
		e.failedCubes.add(fkey+key, struct{}{})
	}
	return nil, false
}

// verifyJustification replays a cached candidate sequence on the
// composite machine under fault f and checks that it still establishes
// every specified cube bit on both rails. The replay is charged like
// any other simulation: a shared-cache hit saves search effort, not
// simulation honesty. Verification is what keeps cross-fault reuse
// sound — a sequence that justifies a state on the good machine can be
// invalidated by the fault's effect on the setup path.
func (e *Engine) verifyJustification(f *fault.Fault, vecs [][]sim.Val, cube []sim.Val) bool {
	k := len(e.flushPrefix) + len(vecs)
	w := e.newWin(k, f)
	for t, vec := range e.flushPrefix {
		copy(w.piVals[t], vec)
	}
	for t, vec := range vecs {
		copy(w.piVals[len(e.flushPrefix)+t], vec)
	}
	e.charge(int64(w.simulate()))
	for i, v := range cube {
		if v == sim.VX {
			continue
		}
		got := w.dLine(k-1, i)
		if got.G != v || got.F != v {
			return false
		}
	}
	return true
}

// capLearning enforces Config.LearnCap on the learning stores, evicting
// oldest entries first. It runs only at fault boundaries: the rollback
// marks in boundaryMark are journal lengths, so a mid-fault eviction
// would break the bit-exact rollback (and hence checkpoint/resume)
// guarantee. Eviction never changes a verdict — a missing entry only
// sends the search back to first principles.
func (e *Engine) capLearning() {
	limit := e.cfg.LearnCap
	if limit <= 0 {
		return
	}
	e.achieved.evict(limit)
	e.failedCubes.evict(limit)
	e.lemmas.evict(limit)
}

// achievedKey identifies a learned, reachable concrete state under a
// specific fault context.
type achievedKey struct {
	fault string
	bits  uint64
}

func unpackState(bits uint64, n int) []sim.Val {
	out := make([]sim.Val, n)
	for i := 0; i < n; i++ {
		if (bits>>uint(i))&1 == 1 {
			out[i] = sim.V1
		} else {
			out[i] = sim.V0
		}
	}
	return out
}
