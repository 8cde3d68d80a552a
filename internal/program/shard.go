package program

// Trial-range sharding: a grid-budget run over trials [lo, hi) of the full
// (seed, trials) space, returned as raw per-trial observations instead of
// folded aggregates. Because every trial's RNG stream depends only on
// (seed, trials, trial index) and the engine's reduction is a singleton
// Welford merge in trial order, the rows of ANY partition of [0, trials) —
// computed on any mix of machines, in any order, at any worker counts —
// concatenate and fold back into the exact bits a single-node Run produces.
// This is the unit of work the distributed serving tier ships between a
// coordinator and its /v1/shards workers.

import (
	"context"
	"fmt"
	"sort"

	"swim/internal/cost"
	"swim/internal/mc"
	"swim/internal/nonideal"
)

// Shard is one trial range's partial grid-budget result: the raw per-trial
// series observations plus the run metadata needed to rebuild the full
// Result. Rows[t-Lo] holds trial t's values — accuracy at each target
// first, then NWC at each target, then raw write-verify cycles at each
// target (3×len(Targets) values). A Shard is the mergeable, serializable
// form of a partial fold: each row is a singleton's sufficient statistics,
// so MergeShards can replay the engine's trial-order reduction losslessly.
type Shard struct {
	// Policy is the registry name of the policy that produced the rows.
	Policy string
	// Targets is the cumulative NWC grid each trial walked.
	Targets []float64
	// Nonidealities are the configured read-time nonideality specs.
	Nonidealities []string
	// ReadTime is when accuracy was measured, seconds after programming.
	ReadTime float64
	// Trials is the FULL run's trial count (the stream-split space), not
	// the shard's share of it.
	Trials int
	// Lo and Hi bound the half-open trial range [Lo, Hi) this shard ran.
	Lo, Hi int
	// Rows are the per-trial observations in trial order (len Hi-Lo).
	Rows [][]float64
	// Cost is the canonical cost-model spec the run was configured with
	// (WithCostModel), empty when cost accounting is off. Carrying the spec
	// lets MergeShards rebuild the Cost report without re-deriving the
	// pipeline configuration.
	Cost string
	// Geom is the mapping geometry the cost report composes over; nil when
	// cost accounting is off.
	Geom *cost.Geometry
	// Calib is the canonical calibration-model spec the run was configured
	// with (WithCalibrationModel), empty when calibration is off. Shards of
	// one merge must agree on it — trials calibrated under different models
	// are observations of different experiments.
	Calib string
	// Probes is the probe-pass operation count calibration pricing composes
	// over; nil when calibration or cost accounting is off.
	Probes *cost.ProbeOps
}

// RunShard executes the pipeline's configured trial range (WithTrialRange;
// the full [0, trials) when none is set) and returns the raw per-trial
// observations. Grid budgets only — drop-budget traces are variable-length
// per trial and have no mergeable row form. ctx must be non-nil, as for
// Run.
func (p *Pipeline) RunShard(ctx context.Context) (*Shard, error) {
	if _, ok := p.budget.(NWCGrid); !ok {
		return nil, fmt.Errorf("program: RunShard requires a grid budget, got %T", p.budget)
	}
	shards, err := Group{p}.RunShards(ctx)
	if err != nil {
		return nil, err
	}
	return shards[0], nil
}

// shard wraps one pipeline's rows of the trial range [lo, hi) with the run
// metadata MergeShards checks and folds.
func (p *Pipeline) shard(env *Env, b NWCGrid, lo, hi int, rows [][]float64) *Shard {
	sh := &Shard{
		Policy:        p.policy.Name(),
		Targets:       append([]float64(nil), b.Targets...),
		Nonidealities: nonideal.Names(p.nonideal),
		ReadTime:      p.readTime,
		Trials:        p.trials,
		Lo:            lo,
		Hi:            hi,
		Rows:          rows,
		Calib:         p.calibSpec(),
	}
	if p.costModel != nil {
		geom := costGeometry(env.Net, env.Device)
		sh.Cost, sh.Geom = p.costModel.Spec(), &geom
		sh.Probes = p.calibProbes(env)
	}
	return sh
}

// MergeShards folds a complete partition of [0, Trials) back into the
// Result a single-node Run of the same pipeline returns — bit for bit,
// because the rows are replayed through the engine's exact trial-order
// singleton reduction. Shards may arrive in any order; they must tile the
// trial space exactly (no gaps, no overlaps) and agree on every piece of
// run metadata.
func MergeShards(shards []*Shard) (*Result, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("program: no shards to merge")
	}
	sorted := append([]*Shard(nil), shards...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	first := sorted[0]
	covered := 0
	for _, sh := range sorted {
		if err := compatibleShards(first, sh); err != nil {
			return nil, err
		}
		if sh.Lo != covered {
			return nil, fmt.Errorf("program: shard range [%d,%d) does not continue coverage at trial %d", sh.Lo, sh.Hi, covered)
		}
		if len(sh.Rows) != sh.Hi-sh.Lo {
			return nil, fmt.Errorf("program: shard [%d,%d) carries %d rows", sh.Lo, sh.Hi, len(sh.Rows))
		}
		covered = sh.Hi
	}
	if covered != first.Trials {
		return nil, fmt.Errorf("program: shards cover [0,%d) of %d trials", covered, first.Trials)
	}
	rows := make([][]float64, 0, first.Trials)
	for _, sh := range sorted {
		rows = append(rows, sh.Rows...)
	}
	var m *cost.Model
	if first.Cost != "" {
		parsed, err := cost.Parse(first.Cost)
		if err != nil {
			return nil, fmt.Errorf("program: shard cost model: %w", err)
		}
		if first.Geom == nil {
			return nil, fmt.Errorf("program: shard carries cost spec %q but no geometry", first.Cost)
		}
		m = &parsed
	}
	return first.fold(rows, m)
}

// fold builds the Result of a grid run from its per-trial rows in trial
// order, taking the run metadata from sh: the one reduction behind both a
// local Run and MergeShards. A non-nil cost model composes a cost report
// over sh's geometry.
func (sh *Shard) fold(rows [][]float64, m *cost.Model) (*Result, error) {
	points := len(sh.Targets)
	agg, err := mc.FoldSeriesRows(3*points, rows)
	if err != nil {
		return nil, fmt.Errorf("program: %w", err)
	}
	res := &Result{
		Policy: sh.Policy, Budget: GridBudget(sh.Targets...), Trials: len(rows),
		Nonidealities: append([]string(nil), sh.Nonidealities...), ReadTime: sh.ReadTime,
		Calibration: sh.Calib,
	}
	for i, target := range sh.Targets {
		res.Points = append(res.Points, Point{
			Target: target, Accuracy: agg[i], NWC: agg[points+i], Cycles: agg[2*points+i],
		})
	}
	if m != nil {
		applyCost(res, *m, *sh.Geom, sh.Calib, sh.Probes)
	}
	return res, nil
}

// compatibleShards reports whether two shards belong to the same run.
func compatibleShards(a, b *Shard) error {
	if a.Policy != b.Policy || a.Trials != b.Trials || a.ReadTime != b.ReadTime ||
		len(a.Targets) != len(b.Targets) || len(a.Nonidealities) != len(b.Nonidealities) {
		return fmt.Errorf("program: shards from different runs: (%s, %d trials) vs (%s, %d trials)",
			a.Policy, a.Trials, b.Policy, b.Trials)
	}
	if a.Cost != b.Cost {
		return fmt.Errorf("program: shards disagree on cost model: %q vs %q", a.Cost, b.Cost)
	}
	if (a.Geom == nil) != (b.Geom == nil) || (a.Geom != nil && *a.Geom != *b.Geom) {
		return fmt.Errorf("program: shards disagree on cost geometry")
	}
	if a.Calib != b.Calib {
		return fmt.Errorf("program: shards disagree on calibration model: %q vs %q", a.Calib, b.Calib)
	}
	if (a.Probes == nil) != (b.Probes == nil) || (a.Probes != nil && *a.Probes != *b.Probes) {
		return fmt.Errorf("program: shards disagree on calibration probe ops")
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			return fmt.Errorf("program: shards disagree on target %d: %g vs %g", i, a.Targets[i], b.Targets[i])
		}
	}
	for i := range a.Nonidealities {
		if a.Nonidealities[i] != b.Nonidealities[i] {
			return fmt.Errorf("program: shards disagree on nonideality %d: %s vs %s", i, a.Nonidealities[i], b.Nonidealities[i])
		}
	}
	return nil
}
