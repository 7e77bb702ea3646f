package fault

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// Simulator is a PROOFS-style bit-parallel sequential fault simulator.
// Faulty circuits ride in 64-bit two-rail words (sim.PVal); a pass
// carries FaultsPerPass faults, one bit each, with bit 0 reserved for
// the broadcast good value. All circuits start at the all-X power-up
// state; test sequences are expected to begin with the reset vector
// (plus the flush prefix for retimed circuits).
//
// The kernel exploits the PROOFS observation that faulty activity is
// confined to the fault's fanout region:
//
//   - the good circuit is simulated once per sequence with an
//     event-driven scheduler and its per-frame values are shared,
//     read-only, by every batch, one byte per position per frame;
//   - each batch stores only its divergence from the broadcast good
//     value and evaluates only its active region — gates whose
//     divergence is nonzero — via an event queue seeded at the
//     injection sites and at flip-flops whose faulty state diverged,
//     falling back to oblivious in-order evaluation when a frame's
//     activity exceeds the fallback threshold;
//   - detection is word-level: one mask accumulation per primary
//     output per frame instead of per-fault bit probes, and a batch
//     terminates early once every fault in it is detected.
//
// The hot path runs over the circuit's structure-of-arrays view
// (netlist.SoA): gate kinds, a fanin CSR and a combinational-fanout
// CSR as flat position-indexed slices, so both the event scheduler and
// the oblivious sweep stream through memory instead of chasing
// per-gate pointers. Per-batch mutable state lives in pooled arenas
// (batchCtx) that reset in O(batch) between passes and in O(touched)
// between frames.
//
// A Simulator may not run two Detects* calls concurrently (the good
// values are shared scratch state), but DetectsParallel itself fans the
// batches of one call out over a worker pool safely.
type Simulator struct {
	c   *netlist.Circuit
	soa *netlist.SoA

	// fallbackEvals is the per-frame gate-evaluation threshold beyond
	// which a batch finishes the frame with oblivious in-order
	// evaluation instead of event scheduling. Zero selects the default
	// (three quarters of the oblivious per-frame evaluation count —
	// measured near-optimal across circuit sizes, since an event
	// evaluation costs only a little more than a sweep slot); negative
	// disables the fallback. Only the package's tests and benchmarks set
	// it (never-fallback and always-oblivious modes).
	fallbackEvals int

	// Good-circuit values per frame of the current sequence, one byte
	// per position, shared read-only across batches: the broadcast good
	// word a batch's divergence is taken against. gVals/gState/gPend
	// are the event-driven good simulator's scratch state, all by
	// position.
	goodRows [][]sim.Val
	gVals    []sim.Val
	gState   []sim.Val
	gPend    []uint64 // pending-event bitset by position

	// pool holds the batch arenas; workers each hold their own arena
	// while running.
	pool sync.Pool

	stats kernelStats
}

// kernelStats holds the monotone activity counters. Workers accumulate
// locally in their batch arenas and merge here once per arena release,
// so the only cross-core traffic is one atomic add per counter per
// worker per call. The pads keep the write-hot line from false-sharing
// with the read-only simulator fields around it.
type kernelStats struct {
	_          [64]byte
	sequences  int64
	batches    int64
	frames     int64
	events     int64
	goodEvals  int64
	gateEvals  int64
	avoided    int64
	fallbacks  int64
	earlyExits int64
	_          [64]byte
}

// Stats is a snapshot of the kernel's activity counters since the last
// Reset (or since construction).
type Stats struct {
	Sequences int64 // good-circuit sequence simulations
	Batches   int64 // fault-batch passes (up to FaultsPerPass faults each)
	Frames    int64 // batch frames simulated (before early exits)
	Events    int64 // gate events processed by the active-region scheduler
	GoodEvals int64 // scalar gate evaluations in the shared good simulation
	GateEvals int64 // parallel-word gate evaluations actually performed
	// GateEvalsAvoided is the oblivious kernel's per-frame evaluation
	// count minus the evaluations performed — the work the active
	// region saved.
	GateEvalsAvoided int64
	Fallbacks        int64 // frames finished by the oblivious fallback
	EarlyExits       int64 // batches terminated before the sequence end
}

// Stats returns a snapshot of the activity counters.
func (fs *Simulator) Stats() Stats {
	return Stats{
		Sequences:        atomic.LoadInt64(&fs.stats.sequences),
		Batches:          atomic.LoadInt64(&fs.stats.batches),
		Frames:           atomic.LoadInt64(&fs.stats.frames),
		Events:           atomic.LoadInt64(&fs.stats.events),
		GoodEvals:        atomic.LoadInt64(&fs.stats.goodEvals),
		GateEvals:        atomic.LoadInt64(&fs.stats.gateEvals),
		GateEvalsAvoided: atomic.LoadInt64(&fs.stats.avoided),
		Fallbacks:        atomic.LoadInt64(&fs.stats.fallbacks),
		EarlyExits:       atomic.LoadInt64(&fs.stats.earlyExits),
	}
}

// ResetStats zeroes the activity counters.
func (fs *Simulator) ResetStats() {
	fs.stats = kernelStats{}
}

// NewSimulator builds a fault simulator for the circuit.
func NewSimulator(c *netlist.Circuit) (*Simulator, error) {
	soa, err := netlist.NewSoA(c)
	if err != nil {
		return nil, err
	}
	n := soa.NumGates()
	return &Simulator{
		c:      c,
		soa:    soa,
		gVals:  make([]sim.Val, n),
		gState: make([]sim.Val, soa.NumDFFs()),
		gPend:  make([]uint64, (n+63)/64),
	}, nil
}

// SoA exposes the flattened circuit view the kernel runs on.
func (fs *Simulator) SoA() *netlist.SoA { return fs.soa }

// fallbackThreshold resolves fallbackEvals: 0 means three quarters of
// the oblivious per-frame work, negative means never fall back.
func (fs *Simulator) fallbackThreshold() int {
	switch {
	case fs.fallbackEvals > 0:
		return fs.fallbackEvals
	case fs.fallbackEvals < 0:
		return 1 << 30
	default:
		return fs.soa.EvalGates * 3 / 4
	}
}

// pconstTab is sim.PConst as a lookup table, indexed by sim.Val and
// padded to four entries so that v&3 indexes it without a bounds check.
var pconstTab = [4]sim.PVal{
	sim.V0: {Zero: ^uint64(0)},
	sim.V1: {One: ^uint64(0)},
	sim.VX: {},
}

// andTab/orTab/xorTab/notTab are the three-valued gate functions as
// lookup tables (indexed by sim.Val pairs), mirroring sim.AndV and
// friends — the scalar analog of the kernel's inlined two-rail folds.
var (
	andTab = [3][3]sim.Val{
		sim.V0: {sim.V0, sim.V0, sim.V0},
		sim.V1: {sim.V0, sim.V1, sim.VX},
		sim.VX: {sim.V0, sim.VX, sim.VX},
	}
	orTab = [3][3]sim.Val{
		sim.V0: {sim.V0, sim.V1, sim.VX},
		sim.V1: {sim.V1, sim.V1, sim.V1},
		sim.VX: {sim.VX, sim.V1, sim.VX},
	}
	xorTab = [3][3]sim.Val{
		sim.V0: {sim.V0, sim.V1, sim.VX},
		sim.V1: {sim.V1, sim.V0, sim.VX},
		sim.VX: {sim.VX, sim.VX, sim.VX},
	}
	notTab = [3]sim.Val{sim.V1, sim.V0, sim.VX}
)

// Detects fault-simulates the test sequence against the fault list and
// returns a parallel slice: detected[i] is true when applying the
// sequence from power-up exposes faults[i] at a primary output (good
// and faulty values both binary and different). Each input vector must
// have one value per primary input.
//
// Faults are batched FaultsPerPass at a time in the order given.
// CollapsedUniverse emits faults gate by gate, so consecutive faults
// already share fanout cones — the locality the active region feeds on.
func (fs *Simulator) Detects(seq [][]sim.Val, faults []Fault) ([]bool, error) {
	return fs.detects(nil, seq, faults, 1)
}

// DetectsOne is the single-fault fast path used by the engines to
// confirm a candidate test: one injection bit, one active region, and
// the batch terminates at the first detecting frame.
func (fs *Simulator) DetectsOne(seq [][]sim.Val, f Fault) (bool, error) {
	if err := fs.simulateGood(seq); err != nil {
		return false, err
	}
	var detected [1]bool
	bc := fs.getBatchCtx()
	defer fs.putBatchCtx(bc)
	runBatch(fs, bc, len(seq), []Fault{f}, detected[:])
	return detected[0], nil
}

// simulateGood runs the good circuit over the sequence once with the
// event-driven scheduler and records every gate's value per frame in
// fs.goodRows, shared read-only by all batches. It also validates the
// vector widths, so runBatch cannot fail.
func (fs *Simulator) simulateGood(seq [][]sim.Val) error {
	for _, vec := range seq {
		if len(vec) != len(fs.soa.PIPos) {
			return fmt.Errorf("fault: vector width %d, want %d", len(vec), len(fs.soa.PIPos))
		}
	}
	atomic.AddInt64(&fs.stats.sequences, 1)
	if cap(fs.goodRows) < len(seq) {
		fs.goodRows = make([][]sim.Val, len(seq))
	}
	fs.goodRows = fs.goodRows[:len(seq)]
	n := fs.soa.NumGates()
	for t := range fs.goodRows {
		if fs.goodRows[t] == nil {
			fs.goodRows[t] = make([]sim.Val, n)
		}
	}

	// Power-up: everything X, every gate scheduled once (the initial
	// full evaluation the event discipline needs to seed values).
	for i := range fs.gVals {
		fs.gVals[i] = sim.VX
	}
	for i := range fs.gState {
		fs.gState[i] = sim.VX
	}
	for i := range fs.gPend {
		fs.gPend[i] = ^uint64(0)
	}
	if r := uint(n) & 63; r != 0 {
		fs.gPend[len(fs.gPend)-1] = 1<<r - 1
	}

	fout, foutOff := fs.soa.Fout, fs.soa.FoutOff
	var goodEvals int64
	for t, vec := range seq {
		for i, p := range fs.soa.PIPos {
			if fs.gVals[p] != vec[i] {
				fs.gVals[p] = vec[i]
				for _, o := range fout[foutOff[p]:foutOff[p+1]] {
					fs.gSchedule(o)
				}
			}
		}
		for i, p := range fs.soa.DFFPos {
			if fs.gVals[p] != fs.gState[i] {
				fs.gVals[p] = fs.gState[i]
				for _, o := range fout[foutOff[p]:foutOff[p+1]] {
					fs.gSchedule(o)
				}
			}
		}
		for wi := 0; wi < len(fs.gPend); wi++ {
			for fs.gPend[wi] != 0 {
				b := bits.TrailingZeros64(fs.gPend[wi])
				fs.gPend[wi] &^= 1 << uint(b)
				p := wi<<6 | b
				kind := fs.soa.Kind[p]
				if kind == netlist.Input || kind == netlist.DFF {
					continue // loaded above; changes already propagated
				}
				v := fs.evalGoodPos(p, kind)
				goodEvals++
				if v != fs.gVals[p] {
					fs.gVals[p] = v
					for _, o := range fout[foutOff[p]:foutOff[p+1]] {
						fs.gSchedule(o)
					}
				}
			}
		}
		copy(fs.goodRows[t], fs.gVals)
		for i, dp := range fs.soa.DFFD {
			fs.gState[i] = fs.gVals[dp]
		}
	}
	atomic.AddInt64(&fs.stats.goodEvals, goodEvals)
	return nil
}

// evalGoodPos is the scalar (good-circuit) gate evaluation over the
// lookup tables above; semantically identical to sim.EvalGate on the
// gate's fanin values.
func (fs *Simulator) evalGoodPos(p int, kind netlist.GateType) sim.Val {
	off, end := fs.soa.FaninOff[p], fs.soa.FaninOff[p+1]
	if off == end {
		switch kind {
		case netlist.Const0:
			return sim.V0
		case netlist.Const1:
			return sim.V1
		default:
			return sim.VX
		}
	}
	fan := fs.soa.Fanin
	v := fs.gVals[fan[off]]
	switch kind {
	case netlist.And, netlist.Nand:
		for k := off + 1; k < end; k++ {
			v = andTab[v][fs.gVals[fan[k]]]
		}
		if kind == netlist.Nand {
			v = notTab[v]
		}
	case netlist.Or, netlist.Nor:
		for k := off + 1; k < end; k++ {
			v = orTab[v][fs.gVals[fan[k]]]
		}
		if kind == netlist.Nor {
			v = notTab[v]
		}
	case netlist.Xor, netlist.Xnor:
		for k := off + 1; k < end; k++ {
			v = xorTab[v][fs.gVals[fan[k]]]
		}
		if kind == netlist.Xnor {
			v = notTab[v]
		}
	case netlist.Not:
		v = notTab[v]
	case netlist.Buf, netlist.Output:
		// v is already the single fanin's value.
	case netlist.Const0:
		v = sim.V0
	case netlist.Const1:
		v = sim.V1
	default:
		v = sim.VX
	}
	return v
}

func (fs *Simulator) gSchedule(p int32) {
	fs.gPend[p>>6] |= 1 << (uint32(p) & 63)
}

// Coverage summarizes a detection vector.
type Coverage struct {
	Total    int
	Detected int
}

// FC returns the fault coverage percentage.
func (c Coverage) FC() float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.Detected) / float64(c.Total)
}

// Summarize counts detections.
func Summarize(detected []bool) Coverage {
	cov := Coverage{Total: len(detected)}
	for _, d := range detected {
		if d {
			cov.Detected++
		}
	}
	return cov
}

// ErrStateTooWide is returned by StateTrace for a circuit with more
// than sim.MaxStateBits DFFs: its states do not fit the packed uint64
// the trace records, and counting them anyway would alias distinct
// states.
var ErrStateTooWide = errors.New("fault: state trace packs at most 64 DFFs")

// StateTrace applies the sequence to the good circuit from power-up and
// returns the set of fully specified states traversed (as packed DFF bit
// vectors). This is the instrument behind the paper's "#states
// traversed by original test set" column (Table 8). Circuits with more
// than sim.MaxStateBits DFFs fail with ErrStateTooWide.
func StateTrace(c *netlist.Circuit, seq [][]sim.Val) (map[uint64]bool, error) {
	s, err := sim.NewSimulator(c)
	if err != nil {
		return nil, err
	}
	states := map[uint64]bool{}
	if err := TraceStates(s, seq, states); err != nil {
		return nil, err
	}
	return states, nil
}

// TraceStates is StateTrace on an existing good-machine simulator: it
// powers s up, applies the sequence and adds every fully specified
// state traversed to states. It refuses circuits wider than
// sim.MaxStateBits with ErrStateTooWide before adding anything.
func TraceStates(s *sim.Simulator, seq [][]sim.Val, states map[uint64]bool) error {
	if n := s.NumDFFs(); n > sim.MaxStateBits {
		return fmt.Errorf("%w: circuit has %d", ErrStateTooWide, n)
	}
	s.PowerUp()
	for _, vec := range seq {
		if _, err := s.Step(vec); err != nil {
			return err
		}
		if bits, ok := s.StateBits(); ok {
			states[bits] = true
		}
	}
	return nil
}
