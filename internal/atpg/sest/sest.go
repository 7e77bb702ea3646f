// Package sest configures the shared ATPG core in the style of
// Sequential EST (Chen & Bushnell): the HITEC-like deterministic flow
// plus search-state learning — proven-unjustifiable state cubes are
// cached and pruned on sight, and concrete states whose justification
// sequences are known get reused. Learning speeds up repeat searches in
// the invalid state space but, as the paper observes, cannot remove the
// density-of-encoding penalty itself.
package sest

import (
	"seqatpg/internal/atpg"
	"seqatpg/internal/netlist"
)

// DefaultConfig returns the SEST-style configuration.
func DefaultConfig(flushCycles int, faultBudget int64) atpg.Config {
	return atpg.Config{
		Name:           "sest",
		MaxFrames:      8,
		MaxBackSteps:   32,
		BacktrackLimit: 2000,
		FaultBudget:    faultBudget,
		FlushCycles:    flushCycles,
		Learning:       true,
	}
}

// SharedConfig is DefaultConfig with the cross-fault justification
// cache enabled: good-machine justification sequences are reused
// across every fault in the run (entries are re-verified on the
// composite machine before use, so verdicts are preserved under
// generous budgets and only effort drops). The cache makes a
// run's per-fault outcomes depend on fault order, so sharded campaigns
// normalize it away; use DefaultConfig where shard invariance matters.
func SharedConfig(flushCycles int, faultBudget int64) atpg.Config {
	cfg := DefaultConfig(flushCycles, faultBudget)
	cfg.Name = "sest-shared"
	cfg.SharedLearning = true
	return cfg
}

// CdclConfig is SharedConfig with the conflict-driven search layer on
// top: conflict analysis learns blocking cubes over state variables and
// frame-relative PIs, backjumping pops straight to the asserting level,
// and Luby restarts escape unproductive subtrees while the learned
// cubes carry across the restart. Good-machine state lemmas feed the
// shared cross-fault cache. Cubes only exclude regions already refuted
// by exhaustive search, so under generous budgets the verdicts are
// SharedConfig's and only the charged effort and abort rate change.
func CdclConfig(flushCycles int, faultBudget int64) atpg.Config {
	cfg := SharedConfig(flushCycles, faultBudget)
	cfg.Name = "sest-cdcl"
	cfg.ConflictLearning = true
	return cfg
}

// New builds a SEST-style engine for the circuit.
func New(c *netlist.Circuit, flushCycles int, faultBudget int64) (*atpg.Engine, error) {
	return atpg.New(c, DefaultConfig(flushCycles, faultBudget))
}
