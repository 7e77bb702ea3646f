package atpg

import (
	"seqatpg/internal/netlist"
	"seqatpg/internal/sim"
)

// pseudoInput identifies a decision variable of the window: a primary
// input of some frame, or a frame-0 state bit.
type pseudoInput struct {
	isState bool
	frame   int // PI frame (0 for state bits)
	index   int // PI position or state bit position
}

// objective is a desired good value on a line (a window position) of
// some frame.
type objective struct {
	frame int
	pos   int
	val   sim.Val
}

// problem abstracts what the PODEM search is trying to do — fault
// detection or state justification.
type problem interface {
	// fail reports that the current partial assignment can never lead
	// to success (binary contradictions only — must be monotone).
	fail(w *window) bool
	// success reports the goal is met.
	success(w *window) bool
	// objective proposes the next line to set. ok=false with no success
	// means the search is stuck (treated as a dead end).
	objective(w *window) (objective, bool)
	// witness locates the refuting line of the current failure for
	// conflict analysis; kind witnessNone when the failure is not a
	// single line-value fact.
	witness(w *window) conflictWitness
}

// lemmaSource is implemented by problems that can promote a learned
// good-rail cube to a shared cross-fault lemma.
type lemmaSource interface {
	publishLemma(e *Engine, w *window, wt conflictWitness, lits []cubeLit)
}

// searchOutcome summarizes a PODEM run.
type searchOutcome int

const (
	// searchExhausted: the full decision tree was explored; no (more)
	// solutions exist.
	searchExhausted searchOutcome = iota
	// searchStopped: onSolution told us to stop (a solution was
	// accepted).
	searchStopped
	// searchAborted: the backtrack or effort budget ran out.
	searchAborted
)

type decision struct {
	pin       pseudoInput
	val       sim.Val
	triedBoth bool
}

// podem runs the decision search. Every time the problem reports
// success, onSolution is consulted: returning true accepts the solution
// and stops; returning false rejects it and the search continues
// enumerating (the mechanism the justification recursion uses to try
// alternative predecessor states). The engine's budget is charged per
// simulation.
//
// With a non-nil cube store the search is conflict-driven: failures
// with an analyzable witness learn a blocking cube over the decision
// variables, assignments covering a stored cube are treated as
// conflicts before any descent below them, and (when the knobs are on)
// conflicts backjump non-chronologically to the cube's asserting level
// and Luby restarts re-descend with the store intact. Learning never
// blocks a solution — a cube only covers refuted assignments — so
// searchExhausted remains a completeness proof and enumeration order is
// the only thing that changes.
func (e *Engine) podem(w *window, prob problem, backtrackLimit int, db *cubeDB, onSolution func() bool) searchOutcome {
	var stack []decision
	backtracks := 0
	if db != nil {
		db.reset()
	}

	assign := func(pin pseudoInput, v sim.Val) {
		if pin.isState {
			w.setState(pin.index, v)
		} else {
			w.setPI(pin.frame, pin.index, v)
		}
	}
	unassign := func(pin pseudoInput) { assign(pin, sim.VX) }

	// push/flip/popTop keep the cube store's assignment mirror in sync
	// with the decision stack; levels are 1-based stack positions.
	push := func(pin pseudoInput, v sim.Val, tried bool) {
		stack = append(stack, decision{pin: pin, val: v, triedBoth: tried})
		assign(pin, v)
		if db != nil {
			db.assign(db.varOf(pin), v, int32(len(stack)))
		}
	}
	popTop := func() {
		d := stack[len(stack)-1]
		if db != nil {
			db.unassign(db.varOf(d.pin))
		}
		unassign(d.pin)
		stack = stack[:len(stack)-1]
	}

	simulate := func() bool {
		return e.charge(int64(w.simulate()))
	}

	// backtrack pops/flips decisions chronologically; returns false when
	// the tree is exhausted.
	backtrack := func() (bool, bool) { // (keepGoing, abort)
		backtracks++
		e.Stats.Backtracks++
		if backtrackLimit > 0 && backtracks > backtrackLimit {
			return false, true
		}
		for len(stack) > 0 {
			d := &stack[len(stack)-1]
			if !d.triedBoth {
				d.triedBoth = true
				if db != nil {
					db.unassign(db.varOf(d.pin))
				}
				if d.val == sim.V0 {
					d.val = sim.V1
				} else {
					d.val = sim.V0
				}
				assign(d.pin, d.val)
				if db != nil {
					db.assign(db.varOf(d.pin), d.val, int32(len(stack)))
				}
				return true, false
			}
			popTop()
		}
		return false, false
	}

	// Restart bookkeeping. Restarts are disabled once a solution has
	// been rejected: re-descending would re-find (and re-reject) the
	// same solutions the chronological trail had already moved past.
	// Only analyzed (freshly simulated) conflicts pace the schedule —
	// cube-pruned branches are nearly free, so counting them would
	// trigger restarts far faster than real search effort justifies.
	conflicts := 0
	restartRound := 1
	learnedSinceRestart := 0
	sawRejection := false

	// resolve handles a conflict: learn + backjump when the witness is
	// analyzable, chronological backtrack otherwise. cubeConflict >= 0
	// names a covered stored cube (resolved chronologically).
	resolve := func(wt conflictWitness, cubeConflict int) (bool, searchOutcome) {
		if db != nil {
			switch {
			case cubeConflict >= 0:
				// Already-refuted region; nothing new to learn.
			case wt.kind == witnessAlways:
				return false, searchExhausted
			case wt.kind == witnessLine:
				lits, analyzed := e.cdcl.analyzeLine(w, wt.onF, wt.frame, wt.pos, db)
				if analyzed && len(lits) == 0 {
					// The conflict holds under the empty assignment: the
					// problem is unsatisfiable outright.
					return false, searchExhausted
				}
				if analyzed {
					conflicts++
					stored := db.learn(lits)
					if stored {
						e.Stats.LearnedCubes++
						learnedSinceRestart++
						if e.TestCubeHook != nil {
							e.TestCubeHook(recordCube(w, wt, lits, db))
						}
						if ls, ok := prob.(lemmaSource); ok {
							ls.publishLemma(e, w, wt, lits)
						}
					}
					// Conflict-directed backjump: pop every decision above
					// the deepest cube literal in one step, then let the
					// chronological flip below revisit that literal's
					// decision. The popped levels are independent of the
					// conflict (the cube is its full support), so every
					// extension of the trail through them is refuted and
					// skipping their other branches is sound. Jumping to
					// the deepest literal — not to the second-deepest with
					// an asserted unit, as clause-learning CDCL does — is
					// deliberate: here re-deriving an assignment costs a
					// charged simulation (there is no free BCP), so
					// discarding the conflict-independent trail below the
					// deepest literal would force the search to re-buy it.
					// (Because the engine simulates after every single
					// decision, a freshly fired monotone failure almost
					// always involves the deepest decision; the skip fires
					// on the rare shallow-support conflicts.)
					if stored && e.backjump {
						maxL := int32(0)
						onTrail := true
						for _, l := range lits {
							lv := db.level[l.v]
							if lv <= 0 {
								onTrail = false // defensive; fall back
								break
							}
							if lv > maxL {
								maxL = lv
							}
						}
						if onTrail && int32(len(stack)) > maxL {
							e.Stats.Backjumps++
							for int32(len(stack)) > maxL {
								popTop()
							}
						}
					}
				}
			}
		}
		keep, abort := backtrack()
		if abort {
			return false, searchAborted
		}
		if !keep {
			return false, searchExhausted
		}
		return true, 0
	}

	// settle is called after every assignment change (fresh decision,
	// chronological flip, backjump, restart). With backjump on it drains
	// stored-cube conflicts BEFORE paying for simulation: an assignment
	// that completes a learned cube sits in a region already proven
	// refuted, so it is unwound immediately — chains of covered flips pop
	// whole refuted subtrees without a single simulation, which is this
	// engine's non-chronological backtracking (each drained conflict
	// counts as a backjump). With backjump off the cube store is still
	// consulted, but only as a post-simulation conflict in the main loop,
	// chronologically — the search order is identical to the baseline and
	// the cubes never skip a simulation charge.
	settle := func() (bool, searchOutcome) {
		if db != nil && e.backjump {
			for {
				ci := db.conflict()
				if ci < 0 {
					break
				}
				if ci < db.seeded {
					e.Stats.LearnPrunes++
				}
				e.Stats.Backjumps++
				cont, out := resolve(conflictWitness{}, ci)
				if !cont {
					return false, out
				}
			}
		}
		if !simulate() {
			return false, searchAborted
		}
		return true, 0
	}

	if cont, out := settle(); !cont {
		return out
	}
	for {
		if prob.fail(w) {
			var wt conflictWitness
			if db != nil {
				wt = prob.witness(w)
			}
			cont, out := resolve(wt, -1)
			if !cont {
				return out
			}
			if cont, out := settle(); !cont {
				return out
			}
			continue
		}
		if prob.success(w) {
			if onSolution() {
				return searchStopped
			}
			// Rejected: continue enumerating as if this were a dead end.
			sawRejection = true
			keep, abort := backtrack()
			if abort {
				return searchAborted
			}
			if !keep {
				return searchExhausted
			}
			if cont, out := settle(); !cont {
				return out
			}
			continue
		}
		if db != nil && !e.backjump {
			if ci := db.conflict(); ci >= 0 {
				if ci < db.seeded {
					e.Stats.LearnPrunes++
				}
				cont, out := resolve(conflictWitness{}, ci)
				if !cont {
					return out
				}
				if cont, out := settle(); !cont {
					return out
				}
				continue
			}
		}
		if db != nil && e.restarts && !sawRejection && len(stack) > 0 &&
			learnedSinceRestart > 0 && int64(conflicts) >= lubyUnit*luby(restartRound) {
			for len(stack) > 0 {
				popTop()
			}
			restartRound++
			conflicts = 0
			learnedSinceRestart = 0
			e.Stats.Restarts++
			if cont, out := settle(); !cont {
				return out
			}
			continue
		}
		obj, ok := prob.objective(w)
		var pin pseudoInput
		var v sim.Val
		if ok {
			pin, v, ok = e.backtrace(w, obj)
		}
		if !ok {
			keep, abort := backtrack()
			if abort {
				return searchAborted
			}
			if !keep {
				return searchExhausted
			}
			if cont, out := settle(); !cont {
				return out
			}
			continue
		}
		push(pin, v, false)
		if cont, out := settle(); !cont {
			return out
		}
	}
}

// recordCube renders a learned cube for the differential replay hook.
func recordCube(w *window, wt conflictWitness, lits []cubeLit, db *cubeDB) CubeRecord {
	rec := CubeRecord{
		OnF:   wt.onF,
		Frame: wt.frame,
		Gate:  int(w.s.Order[wt.pos]),
		Val:   railVal(w, wt.onF, wt.frame, wt.pos),
		K:     w.k,
	}
	for _, l := range lits {
		pin := db.pinOf(l.v)
		rec.Lits = append(rec.Lits, CubeRecordLit{
			IsState: pin.isState, Frame: pin.frame, Index: pin.index, Val: l.val,
		})
	}
	return rec
}

// backtrace maps an objective to an unassigned pseudo-input and a value,
// walking backward through the good-value circuit. ok=false when no
// X path exists from the objective to an assignable input.
func (e *Engine) backtrace(w *window, obj objective) (pseudoInput, sim.Val, bool) {
	s := w.s
	frame, p, want := obj.frame, obj.pos, obj.val
	for hops := 0; hops < 10000; hops++ {
		fan := s.Fanin[s.FaninOff[p]:s.FaninOff[p+1]]
		switch kind := s.Kind[p]; kind {
		case netlist.Input:
			idx := int(s.PIAt[p])
			if w.piVals[frame][idx] != sim.VX {
				return pseudoInput{}, 0, false // already assigned; conflict upstream
			}
			return pseudoInput{frame: frame, index: idx}, want, true
		case netlist.DFF:
			if frame == 0 {
				idx := int(s.DFFAt[p])
				if w.stateVals[idx] != sim.VX {
					return pseudoInput{}, 0, false
				}
				return pseudoInput{isState: true, index: idx}, want, true
			}
			frame--
			p = int(fan[0])
		case netlist.Const0, netlist.Const1:
			return pseudoInput{}, 0, false // constants cannot be set
		case netlist.Output, netlist.Buf:
			p = int(fan[0])
		case netlist.Not:
			p = int(fan[0])
			want = sim.NotV(want)
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			ctrl, inv, _ := controlling(kind)
			need := want
			if inv {
				need = sim.NotV(need)
			}
			// need is the pre-inversion AND/OR level now.
			wantCtrl := need == ctrl
			best, bestCost := -1, int(^uint(0)>>1)
			for _, f := range fan {
				if w.val(frame, int(f)).G != sim.VX {
					continue
				}
				id := int(s.Order[f])
				cost := e.scoap.cost(id, ctrl == sim.V1)
				if !wantCtrl {
					cost = e.scoap.cost(id, ctrl != sim.V1)
					// Hardest-first for the all-inputs case.
					cost = -cost
				}
				if best < 0 || cost < bestCost {
					best, bestCost = int(f), cost
				}
			}
			if best < 0 {
				return pseudoInput{}, 0, false
			}
			p = best
			if wantCtrl {
				want = ctrl
			} else {
				want = sim.NotV(ctrl)
			}
		case netlist.Xor, netlist.Xnor:
			// Pick an X input; aim for the value that makes the output
			// match given the other input (or 0 if both unknown).
			a, b := int(fan[0]), int(fan[1])
			va, vb := w.val(frame, a).G, w.val(frame, b).G
			need := want
			if kind == netlist.Xnor {
				need = sim.NotV(need)
			}
			switch {
			case va == sim.VX && vb != sim.VX:
				p = a
				want = sim.XorV(need, vb)
			case vb == sim.VX && va != sim.VX:
				p = b
				want = sim.XorV(need, va)
			case va == sim.VX && vb == sim.VX:
				p = a
				want = need // pair with b=0 later
			default:
				return pseudoInput{}, 0, false
			}
		default:
			return pseudoInput{}, 0, false
		}
	}
	return pseudoInput{}, 0, false
}
