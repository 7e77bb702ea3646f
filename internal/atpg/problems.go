package atpg

import "seqatpg/internal/sim"

// detectProblem drives PODEM toward exciting the target fault in frame 0
// and propagating the effect to a primary output of the window. With
// extendedObs set, a fault effect reaching a last-frame next-state line
// also counts as success — the exhaustive k=1 run with extended
// observability is the sound redundancy test: a fault that can neither
// be excited nor propagated to any output or state line under a free
// state is untestable in every sequential context.
type detectProblem struct {
	e           *Engine
	extendedObs bool
}

func (p *detectProblem) excited(w *window) sim.Val { return w.faultLineGood() }

func (p *detectProblem) fail(w *window) bool {
	lg := w.faultLineGood()
	if lg != sim.VX && lg == w.flt.SA {
		return true // excitation impossible under current assignments
	}
	if lg == sim.VX {
		return false // still working on excitation
	}
	if w.detectedAtPO() {
		return false
	}
	if p.extendedObs && w.dReachesLastState() {
		return false
	}
	if len(w.dFrontier()) == 0 {
		// Effect exists but cannot move anywhere in this window. When
		// observing state lines too, an effect parked on them is
		// success, checked above.
		if p.extendedObs {
			return !w.dReachesLastState()
		}
		return true
	}
	return false
}

func (p *detectProblem) success(w *window) bool {
	lg := w.faultLineGood()
	if lg == sim.VX || lg == w.flt.SA {
		return false
	}
	if w.detectedAtPO() {
		return true
	}
	return p.extendedObs && w.dReachesLastState()
}

// witness: the only analyzable detect failure is an excitation
// conflict — the fault line's good value is a known constant equal to
// the stuck-at value, and that line value has a pure good-rail support.
// A dead D-frontier is a set-level fact with no single refuting line,
// so it stays chronological.
func (p *detectProblem) witness(w *window) conflictWitness {
	lg := w.faultLineGood()
	if lg != sim.VX && lg == w.flt.SA {
		pos, _ := w.excitationObjective()
		return conflictWitness{kind: witnessLine, frame: 0, pos: pos}
	}
	return conflictWitness{}
}

func (p *detectProblem) objective(w *window) (objective, bool) {
	lg := w.faultLineGood()
	if lg == sim.VX {
		pos, val := w.excitationObjective()
		return objective{frame: 0, pos: pos, val: val}, true
	}
	frontier := w.dFrontier()
	if len(frontier) == 0 {
		return objective{}, false
	}
	// Choose the frontier gate closest to a primary output (static
	// observability distance), earliest frame first on ties.
	order := w.s.Order
	best := frontier[0]
	bestDist := p.e.obsDist[order[best.p]]
	for _, f := range frontier[1:] {
		if d := p.e.obsDist[order[f.p]]; d < bestDist || (d == bestDist && f.t < best.t) {
			best, bestDist = f, d
		}
	}
	ctrl, _, hasCtrl := controlling(w.s.Kind[best.p])
	for _, f := range w.s.Fanin[w.s.FaninOff[best.p]:w.s.FaninOff[best.p+1]] {
		if w.val(best.t, int(f)).G != sim.VX {
			continue
		}
		want := sim.V0
		if hasCtrl {
			want = sim.NotV(ctrl)
		}
		return objective{frame: best.t, pos: int(f), val: want}, true
	}
	// Frontier gate with no X input: output X only through the fault
	// rails; no classic objective — stuck.
	return objective{}, false
}

// targetLine is one required next-state bit in a justification step.
type targetLine struct {
	bit int // state bit (DFF index)
	val sim.Val
}

// justifyProblem drives PODEM to find a (previous state cube, input
// vector) whose next state satisfies every target line. The window is a
// single frame with the target fault injected: a test sequence is
// applied to the faulty machine, so the required excitation state must
// be established on both the good and the faulty rail (the composite
// machine must arrive in the same state).
type justifyProblem struct {
	targets []targetLine
}

// lineVal returns the composite value captured by the DFF of target t,
// including a possible branch fault on the D pin.
func (p *justifyProblem) lineVal(w *window, t targetLine) V5 { return w.dLine(0, t.bit) }

func (p *justifyProblem) fail(w *window) bool {
	for _, t := range p.targets {
		v := p.lineVal(w, t)
		if v.G != sim.VX && v.G != t.val {
			return true
		}
		if v.F != sim.VX && v.F != t.val {
			return true
		}
	}
	return false
}

func (p *justifyProblem) success(w *window) bool {
	for _, t := range p.targets {
		v := p.lineVal(w, t)
		if v.G != t.val || v.F != t.val {
			return false
		}
	}
	return true
}

// witness picks the first mismatched target in target order: a good-
// rail mismatch analyzes the good rail; a faulty-rail mismatch caused
// by a D-pin branch fault is a constant contradiction (unsatisfiable
// outright), any other faulty-rail mismatch analyzes the faulty rail
// into a fault-local cube.
func (p *justifyProblem) witness(w *window) conflictWitness {
	for _, t := range p.targets {
		v := p.lineVal(w, t)
		if v.G != sim.VX && v.G != t.val {
			return conflictWitness{kind: witnessLine, frame: 0, pos: int(w.s.DFFD[t.bit])}
		}
		if v.F != sim.VX && v.F != t.val {
			if w.fPos == int(w.s.DFFPos[t.bit]) && w.fPin == 0 {
				return conflictWitness{kind: witnessAlways}
			}
			return conflictWitness{kind: witnessLine, onF: true, frame: 0, pos: int(w.s.DFFD[t.bit])}
		}
	}
	return conflictWitness{}
}

// publishLemma promotes an analyzable good-rail justification conflict
// to the shared cross-fault store when its support is state-variables-
// only: the good rail is fault-free even in a composite window, so
// "state ⊇ cube forces this next-state bit" holds under every fault
// and every input vector.
func (p *justifyProblem) publishLemma(e *Engine, w *window, wt conflictWitness, lits []cubeLit) {
	if wt.onF || !e.cfg.SharedLearning || !e.cfg.ConflictLearning {
		return
	}
	if !stateOnly(lits, len(w.stateVals)) {
		return
	}
	forced := w.val(0, wt.pos).G
	if forced == sim.VX {
		return
	}
	cube := stateCubeOf(lits, len(w.stateVals))
	for _, t := range p.targets {
		if int(w.s.DFFD[t.bit]) == wt.pos && t.val != forced {
			e.addLemma(LearnedCube{Cube: cube, Bit: t.bit, Val: forced})
		}
	}
}

func (p *justifyProblem) objective(w *window) (objective, bool) {
	for _, t := range p.targets {
		if p.lineVal(w, t).G == sim.VX {
			return objective{frame: 0, pos: int(w.s.DFFD[t.bit]), val: t.val}, true
		}
	}
	return objective{}, false
}
