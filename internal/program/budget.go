package program

import (
	"errors"
	"fmt"
	"math"
)

// Budget is what "enough programming" means for a pipeline run, carried as a
// value instead of encoded in which function gets called. The two kinds are
// NWCGrid (fixed write budgets — the Table 1 / Fig. 2 protocol) and
// DropTarget (a maximum acceptable accuracy drop — Algorithm 1). The
// interface is closed: its only implementations live in this package, so
// Pipeline.Run can switch exhaustively.
type Budget interface {
	validate() error
}

// NWCGrid spends fixed write budgets: each target is a normalized-write-cycle
// level, walked cumulatively on a single device instance per trial (the
// paper's protocol: one Monte-Carlo run programs one chip and measures the
// whole sweep on it). Targets must be finite, non-negative and
// non-decreasing (CheckNWCs).
type NWCGrid struct {
	Targets []float64
}

// GridBudget builds a fixed-NWC budget over the given grid.
func GridBudget(targets ...float64) NWCGrid { return NWCGrid{Targets: targets} }

func (b NWCGrid) validate() error {
	if len(b.Targets) == 0 {
		return errors.New("empty NWC grid")
	}
	return CheckNWCs(b.Targets)
}

// CheckNWCs is the one rule for NWC targets, which NWCGrid and the
// front ends' early checks (experiments.CheckGrid) share: each finite and
// non-negative, the sequence non-decreasing, because a trial spends them
// cumulatively on one device instance. An infinite target is never
// reached by a policy that cannot run out of writes (in-situ training),
// and a NaN would pass every comparison after it.
func CheckNWCs(targets []float64) error {
	prev := 0.0
	for i, t := range targets {
		switch {
		case math.IsNaN(t) || math.IsInf(t, 0):
			return fmt.Errorf("non-finite NWC target %g at grid point %d", t, i)
		case t < 0:
			return fmt.Errorf("negative NWC target %g at grid point %d", t, i)
		case t < prev:
			return fmt.Errorf("NWC grid must be non-decreasing (cumulative spend on one instance), got %g after %g", t, prev)
		}
		prev = t
	}
	return nil
}

// DropTarget stops programming as soon as the measured accuracy drop from
// BaseAccuracy is at most MaxDrop percentage points — the paper's
// Algorithm 1 stopping rule, evaluated once per granule (WithGranularity).
// MaxNWC, when positive, caps the spend for policies that never exhaust
// themselves (in-situ training can write forever); 0 means uncapped. All
// three must be finite.
type DropTarget struct {
	BaseAccuracy float64
	MaxDrop      float64
	MaxNWC       float64
}

// DropBudget builds an accuracy-drop budget against the given baseline
// accuracy (%).
func DropBudget(baseAccuracy, maxDrop float64) DropTarget {
	return DropTarget{BaseAccuracy: baseAccuracy, MaxDrop: maxDrop}
}

func (b DropTarget) validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"BaseAccuracy", b.BaseAccuracy}, {"MaxDrop", b.MaxDrop}, {"MaxNWC", b.MaxNWC}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("non-finite %s %g", f.name, f.v)
		}
	}
	if b.MaxNWC < 0 {
		return fmt.Errorf("negative MaxNWC %g", b.MaxNWC)
	}
	return nil
}
