// Package reach computes the valid-state set of a gate-level sequential
// circuit by symbolic (BDD-based) reachability over its next-state
// functions, and from it the paper's key attribute: the density of
// encoding, the fraction of the 2^#DFF possible states that are valid.
// It plays the role SIS extract_seq_dc played in the original study.
//
// It is also the repository's one symbolic engine: Build evaluates a
// circuit's gates as BDDs, and Traverse runs the flush → frontier
// fixpoint over a next-state vector. The verify package builds its
// product-machine miter on both.
package reach

import (
	"fmt"
	"math"

	"seqatpg/internal/bdd"
	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// Analysis is the result of a reachability run — the Table 6/7 columns.
type Analysis struct {
	NumDFFs     int
	ValidStates float64
	TotalStates float64
	Density     float64
	// set is the BDD of the valid-state set over the state variables,
	// usable for membership queries via Contains.
	set bdd.Ref
	mgr *bdd.Manager
	// img is the traversal's image operator, reused (with its memo and
	// node bound) by StateGraph.
	img *imager
}

// Options tunes the traversal.
type Options struct {
	// FlushCycles is the number of initial cycles with the reset line
	// forced to 1, starting from the full universe of states (the
	// power-up state is unknown). One cycle suffices for non-retimed
	// circuits; retimed circuits need their flush prefix. Values < 1
	// are treated as 1.
	FlushCycles int
	// MaxNodes aborts the analysis when the BDD manager has allocated
	// more than this many nodes (0 means the default). Nodes are never
	// reclaimed, so the bound limits allocation history, not live size.
	MaxNodes int
}

const defaultMaxNodes = 4_000_000

func (o Options) normalized() Options {
	if o.FlushCycles < 1 {
		o.FlushCycles = 1
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = defaultMaxNodes
	}
	return o
}

// Analyze computes the valid-state set: states reachable from the
// post-flush state set under all input sequences.
func Analyze(c *netlist.Circuit, opt Options) (*Analysis, error) {
	if c.ResetPI < 0 {
		return nil, fmt.Errorf("reach: circuit %s has no reset line", c.Name)
	}
	opt = opt.normalized()
	nb := len(c.DFFs)
	// Variable order: state bits first, then inputs.
	m := bdd.New(nb + len(c.PIs))
	next, _, err := Build(m, c, 0, nb, opt.MaxNodes)
	if err != nil {
		return nil, err
	}
	img := newImager(m, next, opt.MaxNodes)
	reached, err := traverse(img, nb+c.ResetIndex(), opt.FlushCycles, nil)
	if err != nil {
		return nil, err
	}
	valid := m.SatCount(reached, nb)
	total := math.Pow(2, float64(nb))
	return &Analysis{
		NumDFFs:     nb,
		ValidStates: valid,
		TotalStates: total,
		Density:     valid / total,
		set:         reached,
		mgr:         m,
		img:         img,
	}, nil
}

// Build evaluates c's gates as BDDs in m: DFF i reads variable
// stateBase+i and primary input i reads inputBase+i. It returns the
// next-state functions (one per DFF) and the output functions (one per
// PO), and fails once m has allocated more than maxNodes nodes (0 means
// the default bound).
func Build(m *bdd.Manager, c *netlist.Circuit, stateBase, inputBase, maxNodes int) (next, outs []bdd.Ref, err error) {
	if maxNodes == 0 {
		maxNodes = defaultMaxNodes
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	vars := map[int]int{}
	for i, id := range c.PIs {
		vars[id] = inputBase + i
	}
	for i, id := range c.DFFs {
		vars[id] = stateBase + i
	}
	val := make([]bdd.Ref, len(c.Gates))
	for _, id := range order {
		g := c.Gates[id]
		switch g.Type {
		case netlist.Input, netlist.DFF:
			val[id] = m.Var(vars[id])
		case netlist.Const0:
			val[id] = bdd.False
		case netlist.Const1:
			val[id] = bdd.True
		case netlist.Buf, netlist.Output:
			val[id] = val[g.Fanin[0]]
		case netlist.Not:
			val[id] = m.Not(val[g.Fanin[0]])
		case netlist.And, netlist.Nand:
			acc := bdd.True
			for _, f := range g.Fanin {
				acc = m.And(acc, val[f])
			}
			if g.Type == netlist.Nand {
				acc = m.Not(acc)
			}
			val[id] = acc
		case netlist.Or, netlist.Nor:
			acc := bdd.False
			for _, f := range g.Fanin {
				acc = m.Or(acc, val[f])
			}
			if g.Type == netlist.Nor {
				acc = m.Not(acc)
			}
			val[id] = acc
		case netlist.Xor, netlist.Xnor:
			acc := bdd.False
			for _, f := range g.Fanin {
				acc = m.Xor(acc, val[f])
			}
			if g.Type == netlist.Xnor {
				acc = m.Not(acc)
			}
			val[id] = acc
		default:
			return nil, nil, fmt.Errorf("reach: unsupported gate type %v", g.Type)
		}
		if m.Size() > maxNodes {
			return nil, nil, fmt.Errorf("reach: BDD blew up building logic for %s (>%d nodes)", c.Name, maxNodes)
		}
	}
	next = make([]bdd.Ref, len(c.DFFs))
	for i, id := range c.DFFs {
		next[i] = val[c.Gates[id].Fanin[0]]
	}
	outs = make([]bdd.Ref, len(c.POs))
	for i, id := range c.POs {
		outs[i] = val[id]
	}
	return next, outs, nil
}

// Traverse runs the flush → fixpoint traversal of the next-state vector
// next, whose state bit i is variable i of m: FlushCycles images with
// variable resetVar held at 1 from the full universe, then images under
// all inputs until no new state appears. visit, when non-nil, sees each
// frontier before it is imaged; returning true stops the traversal.
// The result is the set reached so far.
func Traverse(m *bdd.Manager, next []bdd.Ref, resetVar int, opt Options, visit func(frontier bdd.Ref) bool) (bdd.Ref, error) {
	opt = opt.normalized()
	return traverse(newImager(m, next, opt.MaxNodes), resetVar, opt.FlushCycles, visit)
}

func traverse(img *imager, resetVar, flushCycles int, visit func(bdd.Ref) bool) (bdd.Ref, error) {
	m := img.m
	// Flush phase: reset forced to 1, other inputs free, from universe.
	flushNext := make([]bdd.Ref, len(img.next))
	for i, f := range img.next {
		flushNext[i] = m.Restrict(f, resetVar, true)
	}
	flushImg := newImager(m, flushNext, img.maxNodes)
	set := bdd.True
	for k := 0; k < flushCycles; k++ {
		var err error
		if set, err = flushImg.image(set); err != nil {
			return bdd.False, err
		}
	}

	// Fixpoint phase: all inputs (including reset) free.
	reached := set
	frontier := set
	for frontier != bdd.False {
		if visit != nil && visit(frontier) {
			break
		}
		nxt, err := img.image(frontier)
		if err != nil {
			return bdd.False, err
		}
		frontier = m.And(nxt, m.Not(reached))
		reached = m.Or(reached, nxt)
		if m.Size() > img.maxNodes {
			return bdd.False, fmt.Errorf("reach: BDD blew up during traversal (>%d nodes)", img.maxNodes)
		}
	}
	return reached, nil
}

// Contains reports whether the packed state (bit i = DFF i) is valid.
// It panics for circuits wider than sim.MaxStateBits DFFs, whose states
// do not fit the packed word.
func (a *Analysis) Contains(state uint64) bool {
	if a.NumDFFs > sim.MaxStateBits {
		panic(fmt.Sprintf("reach: %d DFFs do not fit a packed %d-bit state", a.NumDFFs, sim.MaxStateBits))
	}
	assign := make([]bool, a.mgr.NumVars())
	for i := 0; i < a.NumDFFs; i++ {
		assign[i] = (state>>uint(i))&1 == 1
	}
	return a.mgr.Eval(a.set, assign)
}

// imager computes images of state sets under a next-state function
// vector whose state bit i is variable i, existentially quantifying
// current state and inputs via recursive output splitting.
type imager struct {
	m        *bdd.Manager
	next     []bdd.Ref
	maxNodes int
	memo     map[memoKey]bdd.Ref
}

type memoKey struct {
	depth int
	set   bdd.Ref
}

func newImager(m *bdd.Manager, next []bdd.Ref, maxNodes int) *imager {
	return &imager{m: m, next: next, maxNodes: maxNodes, memo: map[memoKey]bdd.Ref{}}
}

// image returns the set of next states (over state variables) reachable
// in one step from any (state ∈ set, any input).
func (im *imager) image(set bdd.Ref) (bdd.Ref, error) {
	return im.rec(set, 0)
}

func (im *imager) rec(constraint bdd.Ref, depth int) (bdd.Ref, error) {
	if constraint == bdd.False {
		return bdd.False, nil
	}
	if depth == len(im.next) {
		return bdd.True, nil
	}
	if im.m.Size() > im.maxNodes {
		return bdd.False, fmt.Errorf("reach: image computation exceeded %d nodes", im.maxNodes)
	}
	key := memoKey{depth, constraint}
	if r, ok := im.memo[key]; ok {
		return r, nil
	}
	f := im.next[depth]
	on := im.m.And(constraint, f)
	off := im.m.And(constraint, im.m.Not(f))
	hi, err := im.rec(on, depth+1)
	if err != nil {
		return bdd.False, err
	}
	lo, err := im.rec(off, depth+1)
	if err != nil {
		return bdd.False, err
	}
	v := im.m.Var(depth)
	out := im.m.Or(im.m.And(v, hi), im.m.And(im.m.Not(v), lo))
	im.memo[key] = out
	return out, nil
}

// StateGraph enumerates the valid states and their successor relation:
// adjacency[s] lists the packed states reachable from s in one step
// under some input. The enumeration is capped at maxStates valid states
// (an error is returned beyond that) and runs under the analysis's node
// bound; inputs are quantified symbolically, so wide input spaces cost
// nothing extra. Circuits wider than sim.MaxStateBits DFFs are rejected.
func (a *Analysis) StateGraph(maxStates int) (states []uint64, adjacency map[uint64][]uint64, err error) {
	if a.NumDFFs > sim.MaxStateBits {
		return nil, nil, fmt.Errorf("reach: %d DFFs do not fit a packed %d-bit state", a.NumDFFs, sim.MaxStateBits)
	}
	if a.ValidStates > float64(maxStates) {
		return nil, nil, fmt.Errorf("reach: %v valid states exceed the %d cap", a.ValidStates, maxStates)
	}
	all := a.enumerate(a.set)
	// Successors per state: build the one-state set and image it.
	adjacency = map[uint64][]uint64{}
	for _, s := range all {
		cube := bdd.True
		for b := 0; b < a.NumDFFs; b++ {
			v := a.mgr.NVar(b)
			if (s>>uint(b))&1 == 1 {
				v = a.mgr.Var(b)
			}
			cube = a.mgr.And(cube, v)
		}
		succSet, err := a.img.image(cube)
		if err != nil {
			return nil, nil, err
		}
		adjacency[s] = a.enumerate(succSet)
	}
	return all, adjacency, nil
}

// enumerate lists the packed states of a state set by exhaustive
// recursion over the state variables (callers keep the set small).
func (a *Analysis) enumerate(set bdd.Ref) []uint64 {
	var out []uint64
	var walk func(prefix uint64, bit int, f bdd.Ref)
	walk = func(prefix uint64, bit int, f bdd.Ref) {
		if f == bdd.False {
			return
		}
		if bit == a.NumDFFs {
			out = append(out, prefix)
			return
		}
		walk(prefix, bit+1, a.mgr.Restrict(f, bit, false))
		walk(prefix|1<<uint(bit), bit+1, a.mgr.Restrict(f, bit, true))
	}
	walk(0, 0, set)
	return out
}
