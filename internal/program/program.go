// Package program is the unified pipeline API for the paper's core loop:
// sensitivity → selection → write-verify programming → on-device evaluation.
//
// It replaces the per-experiment glue that used to stitch the swim
// primitives (swim.Algorithm1, swim.WriteVerifyToNWC, swim.InSituToNWC)
// together by hand. The API has three small pieces:
//
//   - Policy — a named programming strategy (how the write budget is spent).
//     The built-ins "swim", "magnitude", "random", "insitu" and "noverify"
//     are registered in a string registry (Register / Lookup), so new device
//     models and selectors plug in by name; SelectorPolicy adapts any
//     swim.Selector into a Policy.
//
//   - Budget — what "enough programming" means, as a value rather than a
//     separate function entry point: GridBudget fixes a (cumulative) grid of
//     normalized-write-cycle targets, DropBudget fixes a maximum acceptable
//     accuracy drop (the paper's Algorithm 1 stopping rule).
//
//   - Pipeline — built with functional options (WithDevice, WithEval,
//     WithCalibration, WithGranularity, WithWorkers, ...) whose single
//     Run(ctx) drives the parallel Monte-Carlo engine (package mc) and
//     returns a structured Result: per-point accuracy mean/std via
//     stat.Welford, NWC spent, the per-granule accuracy trace, and the
//     policy name.
//
// # Determinism
//
// Run is bit-for-bit reproducible in (seed, trials) and independent of the
// worker count, because every trial owns a pre-split RNG stream and the
// aggregation order is fixed (see package mc). The per-trial stream is
// consumed in exactly the order the legacy free-function glue consumed it —
// selector order first, then device programming, then budget spending — so
// for a fixed seed the pipeline reproduces swim.Algorithm1,
// swim.WriteVerifyToNWC and swim.InSituToNWC results bit-for-bit
// (equivalence_test.go pins this).
//
// # Migration from the swim.* entry points
//
//	swim.WriteVerifyToNWC(mp, sel.Order(r), nwc, r)   →  GridBudget(nwc...)
//	swim.Algorithm1(mp, sel, p, base, drop, ...)      →  DropBudget(base, drop) + WithGranularity(p)
//	swim.InSituToNWC(mp, x, y, nwc, cfg, r)           →  Lookup("insitu") + GridBudget(nwc...)
//
// The swim primitives remain available for single-instance, caller-managed
// use; the pipeline is the supported entry point for experiments.
package program

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"swim/internal/calib"
	"swim/internal/cost"
	"swim/internal/device"
	"swim/internal/mapping"
	"swim/internal/mc"
	"swim/internal/nn"
	"swim/internal/nonideal"
	"swim/internal/rng"
	"swim/internal/stat"
	"swim/internal/swim"
	"swim/internal/tensor"
)

// ErrBudgetExhausted reports that a drop-budget run spent everything a
// policy had to offer (or hit its MaxNWC cap) without any trial reaching the
// accuracy target. The Result returned alongside it is still valid; test
// with errors.Is.
var ErrBudgetExhausted = errors.New("program: budget exhausted before the accuracy target was met")

// Pipeline is a configured programming/evaluation run. Build one with New
// and the With... functional options, then call Run. A Pipeline is immutable
// after New and safe to Run multiple times (each Run re-derives everything
// from the seed).
type Pipeline struct {
	policy Policy
	budget Budget
	env    Env

	evalX     *tensor.Tensor
	evalY     []int
	evalBatch int
	calX      *tensor.Tensor
	calY      []int

	granularity float64
	seed        uint64
	trials      int
	rangeLo     int
	rangeHi     int
	ranged      bool
	workers     int
	gate        mc.Gate
	progress    ProgressFunc
	cycleTable  []float64
	spatial     *device.SpatialConfig
	nonideal    []nonideal.Nonideality
	readTime    float64
	costModel   *cost.Model
	calibModel  *calib.Model

	deviceSet bool
}

// arenas pools the compiled-evaluation arenas — scratch plus the kept
// checkpoints of an eval.Binding — of every pipeline in the process: each
// trial borrows one for the duration of its accuracy measurements, so the
// steady state is one arena per busy Monte-Carlo worker, and trial N+1
// reuses the memory trial N grew, also when they belong to different runs
// (a daemon serving one-trial shards builds a pipeline per shard).
var arenas sync.Pool

// Option configures a Pipeline. Options validate eagerly: New returns the
// first option error instead of deferring misconfiguration into a worker.
type Option func(*Pipeline) error

// WithDevice sets the device/programming model (required).
func WithDevice(m device.Model) Option {
	return func(p *Pipeline) error {
		p.env.Device = m
		p.deviceSet = true
		return nil
	}
}

// WithEval sets the evaluation split accuracy is measured on (required).
func WithEval(x *tensor.Tensor, y []int) Option {
	return func(p *Pipeline) error {
		if x == nil || len(y) == 0 {
			return errors.New("nil or empty evaluation set")
		}
		if x.Shape[0] != len(y) {
			return fmt.Errorf("evaluation set mismatch: %d samples vs %d labels", x.Shape[0], len(y))
		}
		p.evalX, p.evalY = x, y
		return nil
	}
}

// WithEvalBatch sets the batch size used for every accuracy measurement
// (and for the calibration sensitivity pass). Default 64.
func WithEvalBatch(n int) Option {
	return func(p *Pipeline) error {
		if n < 1 {
			return fmt.Errorf("evaluation batch must be positive, got %d", n)
		}
		p.evalBatch = n
		return nil
	}
}

// WithCalibration sets the calibration split the pipeline computes
// second-derivative sensitivities from (one forward + one second-derivative
// backward pass) when none are injected via WithSensitivity. Policies that
// rank by sensitivity ("swim") need one or the other.
func WithCalibration(x *tensor.Tensor, y []int) Option {
	return func(p *Pipeline) error {
		if x == nil || len(y) == 0 {
			return errors.New("nil or empty calibration set")
		}
		if x.Shape[0] != len(y) {
			return fmt.Errorf("calibration set mismatch: %d samples vs %d labels", x.Shape[0], len(y))
		}
		p.calX, p.calY = x, y
		return nil
	}
}

// WithSensitivity injects precomputed Hessian-diagonal sensitivities (and
// optionally weight magnitudes; nil recomputes them from the network),
// skipping the calibration pass. Workload caches use this to share one
// sensitivity computation across many runs.
func WithSensitivity(hess, weights []float64) Option {
	return func(p *Pipeline) error {
		if len(hess) == 0 {
			return errors.New("empty sensitivity vector")
		}
		if weights != nil && len(weights) != len(hess) {
			return fmt.Errorf("sensitivity/weights length mismatch: %d vs %d", len(hess), len(weights))
		}
		p.env.Hess, p.env.Weights = hess, weights
		return nil
	}
}

// WithTraining sets the training split in-situ policies iterate on.
func WithTraining(x *tensor.Tensor, y []int) Option {
	return func(p *Pipeline) error {
		if x == nil || len(y) == 0 {
			return errors.New("nil or empty training set")
		}
		if x.Shape[0] != len(y) {
			return fmt.Errorf("training set mismatch: %d samples vs %d labels", x.Shape[0], len(y))
		}
		p.env.TrainX, p.env.TrainY = x, y
		return nil
	}
}

// WithGranularity sets the Algorithm-1 granule size p ∈ (0, 1] used by
// drop-budget runs (the paper uses 5%). Default 0.05.
func WithGranularity(g float64) Option {
	return func(p *Pipeline) error {
		if g <= 0 || g > 1 {
			return fmt.Errorf("granularity must be in (0, 1], got %g", g)
		}
		p.granularity = g
		return nil
	}
}

// WithSeed sets the Monte-Carlo master seed. Default 1.
func WithSeed(seed uint64) Option {
	return func(p *Pipeline) error {
		p.seed = seed
		return nil
	}
}

// WithTrials sets the Monte-Carlo trial count. Default mc.Trials(8), i.e. 8
// unless the SWIM_MC environment variable overrides it.
func WithTrials(n int) Option {
	return func(p *Pipeline) error {
		if n < 1 {
			return fmt.Errorf("trial count must be positive, got %d", n)
		}
		p.trials = n
		return nil
	}
}

// WithTrialRange restricts execution to the trial range [lo, hi) of the
// full WithTrials space — the distributed-sharding entry point. Trial
// streams depend only on (seed, trials, trial index), so a range's results
// are the same bits whether it runs alone on a remote worker or as part of
// a full local run. Run then returns a Result whose aggregates fold only
// the range's trials; RunShard returns the raw mergeable observations
// (MergeShards folds a complete partition back into the full-run Result,
// bit for bit). Grid budgets only; New rejects a range outside
// [0, trials).
func WithTrialRange(lo, hi int) Option {
	return func(p *Pipeline) error {
		if lo < 0 || hi <= lo {
			return fmt.Errorf("trial range [%d,%d) is empty or negative", lo, hi)
		}
		p.rangeLo, p.rangeHi, p.ranged = lo, hi, true
		return nil
	}
}

// WithWorkers pins the worker-goroutine count for this pipeline. Results are
// bit-identical for every worker count; without this option the mc default
// (SWIM_WORKERS / runtime.NumCPU) applies.
func WithWorkers(n int) Option {
	return func(p *Pipeline) error {
		if n < 1 {
			return fmt.Errorf("worker count must be positive, got %d (omit the option for the default)", n)
		}
		p.workers = n
		return nil
	}
}

// WithWorkerGate attaches a cooperative worker cap (mc.Gate) to the run:
// WithWorkers (or the mc default) remains the ceiling, but between trials
// only Gate.Limit() workers stay active. A serving layer hands each
// concurrent job a fair-share gate so jobs split the machine instead of each
// claiming every CPU. Results are bit-identical with or without a gate.
func WithWorkerGate(g mc.Gate) Option {
	return func(p *Pipeline) error {
		if g == nil {
			return errors.New("nil worker gate")
		}
		p.gate = g
		return nil
	}
}

// WithCycleTable injects a precomputed expected-write-cycles-per-magnitude
// table (device.Model.CycleTable). Without it the pipeline derives one from
// the seed, so runs sharing a table across policies must pass it explicitly.
func WithCycleTable(table []float64) Option {
	return func(p *Pipeline) error {
		if len(table) == 0 {
			return errors.New("empty cycle table")
		}
		p.cycleTable = table
		return nil
	}
}

// WithSpatial adds a per-trial spatial variation field (the §2.1 extension):
// after the parallel programming pass, every trial draws a fresh correlated
// field and re-programs under temporal + spatial error.
func WithSpatial(cfg device.SpatialConfig) Option {
	return func(p *Pipeline) error {
		if cfg.Rows < 1 || cfg.Cols < 1 {
			return fmt.Errorf("invalid spatial field geometry %dx%d", cfg.Rows, cfg.Cols)
		}
		p.spatial = &cfg
		return nil
	}
}

// WithNonidealities applies a stack of read-time device-nonideality models
// (package nonideal: drift, retention, stuck-at faults, ...): every trial
// mints its own deterministic instance from the trial stream and every
// accuracy measurement observes the degraded device state at the configured
// read time (WithReadTime) instead of the ideal time-0 conductances.
// Write-verify still corrects the true (time-0) device state; every device
// then degrades for the full read time, verified or not, so a verified
// weight's advantage under degradation is the smaller programming error it
// starts from — the interaction scenario sweeps study. Models apply in the
// given order. The configured specs are recorded in the Result.
func WithNonidealities(models ...nonideal.Nonideality) Option {
	return func(p *Pipeline) error {
		for i, n := range models {
			if n == nil {
				return fmt.Errorf("nil nonideality at position %d", i)
			}
		}
		p.nonideal = append(p.nonideal, models...)
		return nil
	}
}

// WithReadTime sets when accuracy is measured, in seconds after the
// programming pass — the time axis nonideality models degrade along.
// Without WithNonidealities it has no effect. Default 0 (read immediately
// after programming).
func WithReadTime(seconds float64) Option {
	return func(p *Pipeline) error {
		if seconds < 0 || math.IsNaN(seconds) {
			return fmt.Errorf("read time must be non-negative, got %g", seconds)
		}
		p.readTime = seconds
		return nil
	}
}

// New validates the configuration and returns a runnable Pipeline. master is
// the trained network to program (never mutated: every trial clones it).
func New(master *nn.Network, pol Policy, b Budget, opts ...Option) (*Pipeline, error) {
	if master == nil {
		return nil, errors.New("program: nil network")
	}
	if pol == nil {
		return nil, errors.New("program: nil policy")
	}
	if b == nil {
		return nil, errors.New("program: nil budget")
	}
	p := &Pipeline{
		policy:      pol,
		budget:      b,
		evalBatch:   64,
		granularity: 0.05,
		seed:        1,
		trials:      mc.Trials(8),
	}
	p.env.Net = master
	p.env.InSitu = swim.DefaultInSitu()
	for _, o := range opts {
		if err := o(p); err != nil {
			return nil, fmt.Errorf("program: %w", err)
		}
	}
	if !p.deviceSet {
		return nil, errors.New("program: no device model (use WithDevice)")
	}
	if err := p.env.Device.Validate(); err != nil {
		return nil, fmt.Errorf("program: invalid device model: %w", err)
	}
	if p.evalX == nil {
		return nil, errors.New("program: no evaluation set (use WithEval)")
	}
	if err := b.validate(); err != nil {
		return nil, fmt.Errorf("program: %w", err)
	}
	if p.ranged {
		if p.rangeHi > p.trials {
			return nil, fmt.Errorf("program: trial range [%d,%d) outside [0,%d)", p.rangeLo, p.rangeHi, p.trials)
		}
		if _, ok := b.(NWCGrid); !ok {
			return nil, fmt.Errorf("program: trial ranges require a grid budget, got %T", b)
		}
	}
	return p, nil
}

// Run executes the configured Monte-Carlo programming run under ctx, which
// must be non-nil. The returned Result is valid even when err is
// ErrBudgetExhausted (drop budgets only); any other error leaves the Result
// nil.
func (p *Pipeline) Run(ctx context.Context) (*Result, error) {
	env := p.env // shallow copy: Run never mutates the Pipeline
	table, err := p.prepare(&env)
	if err != nil {
		return nil, err
	}
	switch b := p.budget.(type) {
	case NWCGrid:
		sh, err := p.runShard(ctx, &env, table, b)
		if err != nil {
			return nil, err
		}
		return sh.fold(sh.Rows, p.costModel)
	case DropTarget:
		return p.runDrop(ctx, &env, table, b)
	}
	return nil, fmt.Errorf("program: unsupported budget type %T", p.budget)
}

// prepare derives the run environment shared by Run and RunShard: fill in
// weights/sensitivities, preflight the policy, and resolve the cycle table.
// Everything here is deterministic in the pipeline's configuration, so the
// full run and every trial-range shard of it derive identical state.
func (p *Pipeline) prepare(env *Env) ([]float64, error) {
	if env.Weights == nil {
		env.Weights = swim.FlatWeights(env.Net)
	}
	if env.Hess == nil && p.calX != nil {
		// Sensitivity mutates the network's Hessian buffers, so run it on a
		// clone; the values are deterministic in (weights, calibration set).
		env.Hess = swim.Sensitivity(env.Net.Clone(), p.calX, p.calY, p.evalBatch)
	}
	// Preflight the policy against the environment so a misconfiguration
	// (missing sensitivities, missing training data) surfaces here as a
	// typed error rather than as a wrapped panic from inside a worker.
	// Policies implementing envValidator are checked without paying for a
	// throwaway trial (the built-ins all do); others mint and discard one.
	if v, ok := p.policy.(envValidator); ok {
		if err := v.validateEnv(env); err != nil {
			return nil, fmt.Errorf("program: policy %q: %w", p.policy.Name(), err)
		}
	} else if _, err := p.policy.NewTrial(env, rng.New(p.seed^0x9a11e7)); err != nil {
		return nil, fmt.Errorf("program: policy %q: %w", p.policy.Name(), err)
	}
	table := p.cycleTable
	if table == nil {
		table = env.Device.CycleTable(300, rng.New(p.seed^0x5eed))
	}
	return table, nil
}

// setupTrial builds one Monte-Carlo trial: the policy's per-trial state
// (selector order) first, then the programmed device instance — exactly the
// stream-consumption order of the legacy experiment glue, which the
// bit-for-bit equivalence guarantee depends on. Errors panic; the mc engine
// converts worker panics into run errors, and Run preflights the policy so
// the only reachable panics are programming bugs.
//
// The trial's accuracy evaluations run through compiled plans and a
// binding backed by a pooled arena; release returns the arena to the pool
// and must be called when the trial body finishes.
func (p *Pipeline) setupTrial(env *Env, table []float64, r *rng.Source) (mp *mapping.Mapped, trial Trial, release func()) {
	trial, err := p.policy.NewTrial(env, r)
	if err != nil {
		panic(err)
	}
	mp, err = mapping.New(env.Net, env.Device, table, r)
	if err != nil {
		panic(err)
	}
	if p.spatial != nil {
		mp.ProgramAllSpatial(r, device.NewSpatialField(*p.spatial, r))
	}
	if len(p.nonideal) > 0 {
		// One split keeps the trial stream's consumption fixed no matter
		// how many models are stacked, so adding a nonideality never shifts
		// the device-programming randomness of a later trial phase.
		mp.SetNonideal(nonideal.NewTrials(p.nonideal, env.Device, r.Split()), p.readTime)
	}
	if p.calibModel != nil {
		// The calibration split comes after the nonideality split and is
		// consumed only when a model is configured, so calibration-off runs
		// keep the legacy trial-stream consumption bit for bit.
		mp.SetCalibration(p.calibModel.NewTrial(r.Split()))
	}
	arena, _ := arenas.Get().(*tensor.Arena)
	if arena == nil {
		arena = tensor.NewArena()
	}
	mp.SetEvalArena(arena)
	return mp, trial, func() { arenas.Put(arena) }
}

// gridTrial returns the per-trial body of a grid-budget run: walk the
// cumulative NWC targets on one device instance and report accuracy, NWC
// and raw write-verify cycles per target — the paper's Table 1 / Fig. 2
// protocol plus the cycle counts cost accounting is derived from. Shared by
// the full run and the trial-range shard path so both execute identical
// bits.
func (p *Pipeline) gridTrial(env *Env, table []float64, b NWCGrid) func(r *rng.Source) []float64 {
	points := len(b.Targets)
	return func(r *rng.Source) []float64 {
		out := make([]float64, 3*points)
		mp, trial, release := p.setupTrial(env, table, r)
		defer release()
		for i, nwc := range b.Targets {
			trial.SpendTo(mp, nwc, r)
			out[i] = mp.Accuracy(p.evalX, p.evalY, p.evalBatch)
			out[points+i] = mp.NWC()
			out[2*points+i] = mp.CyclesUsed
		}
		return out
	}
}

// dropOut is one trial's outcome under a drop budget.
type dropOut struct {
	accs     []float64 // accuracy after each granule, including step 0
	nwcs     []float64 // NWC after each granule
	fracs    []float64 // fraction of the priority order verified
	achieved bool
}

// runDrop runs the paper's Algorithm 1 under the configured policy: verify
// one granule at a time, re-evaluating after each, until the accuracy drop
// from the budget's base is within MaxDrop, the policy is exhausted, or the
// MaxNWC cap is hit.
func (p *Pipeline) runDrop(ctx context.Context, env *Env, table []float64, b DropTarget) (*Result, error) {
	gate, ps := p.wrapGate(p.trials)
	outs, err := mc.MapGate(ctx, p.seed, p.trials, p.workers, gate, func(_ int, r *rng.Source) dropOut {
		mp, trial, release := p.setupTrial(env, table, r)
		defer release()
		n := mp.TotalWeights()
		granule := granuleSize(p.granularity, n)
		var o dropOut
		record := func(frac float64) float64 {
			acc := mp.Accuracy(p.evalX, p.evalY, p.evalBatch)
			o.accs = append(o.accs, acc)
			o.nwcs = append(o.nwcs, mp.NWC())
			o.fracs = append(o.fracs, frac)
			return acc
		}
		// FractionVerified mirrors Algorithm 1's bookkeeping over the full
		// weight count; trials that know their real order coverage
		// (selector policies, whose order may be a subset) report it
		// themselves via progresser.
		fraction := func(done int) float64 {
			if pr, ok := trial.(progresser); ok {
				return pr.progress()
			}
			return float64(done) / float64(n)
		}
		// Step 0: accuracy right after the parallel (unverified) programming.
		if acc := record(0); b.BaseAccuracy-acc <= b.MaxDrop {
			o.achieved = true
			return o
		}
		for done := 0; ; {
			// A policy that never exhausts itself (in-situ) under an
			// unreachable target with no MaxNWC cap would loop forever;
			// honour cancellation per granule so Run(ctx) stays killable
			// mid-trial (the engine surfaces ctx.Err for the whole run).
			if ctx.Err() != nil {
				break
			}
			exhausted := trial.Step(mp, p.granularity, r)
			if done += granule; done > n {
				done = n
			}
			acc := record(fraction(done))
			if b.BaseAccuracy-acc <= b.MaxDrop {
				o.achieved = true
				break
			}
			if exhausted || (b.MaxNWC > 0 && mp.NWC() >= b.MaxNWC) {
				break
			}
		}
		return o
	})
	if err != nil {
		return nil, fmt.Errorf("program: policy %q: %w", p.policy.Name(), err)
	}
	ps.complete()

	res := &Result{
		Policy: p.policy.Name(), Budget: p.budget, Trials: p.trials,
		Nonidealities: nonideal.Names(p.nonideal), ReadTime: p.readTime,
		Calibration: p.calibSpec(),
		NWC:         &stat.Welford{}, Evals: &stat.Welford{},
	}
	// Fold per-trial singleton accumulators in trial order — the same
	// schedule-independent reduction the mc engine uses, so aggregates are
	// bit-identical for any worker count.
	for _, o := range outs {
		for i := range o.accs {
			if i == len(res.Trace) {
				res.Trace = append(res.Trace, TraceStep{
					FractionVerified: o.fracs[i],
					Accuracy:         &stat.Welford{},
					NWC:              &stat.Welford{},
				})
			}
			addObs(res.Trace[i].Accuracy, o.accs[i])
			addObs(res.Trace[i].NWC, o.nwcs[i])
		}
		addObs(res.NWC, o.nwcs[len(o.nwcs)-1])
		addObs(res.Evals, float64(len(o.accs)))
		if o.achieved {
			res.Achieved++
		}
	}
	if res.Achieved == 0 {
		return res, fmt.Errorf("program: policy %q: no trial reached drop <= %g pp: %w",
			p.policy.Name(), b.MaxDrop, ErrBudgetExhausted)
	}
	return res, nil
}

// addObs folds one observation into w as a singleton merge, the reduction
// mc.FoldSeriesRows applies to grid rows.
func addObs(w *stat.Welford, v float64) { w.MergeObs(v) }
