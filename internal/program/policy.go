package program

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"swim/internal/device"
	"swim/internal/mapping"
	"swim/internal/nn"
	"swim/internal/rng"
	"swim/internal/swim"
	"swim/internal/tensor"
)

// Env is the workload context a Policy builds its per-trial state from. The
// Pipeline assembles it from the functional options; Hess and Weights are
// the pipeline's Sensitivity (WithSensitivity, or the one New builds from
// the WithCalibration pass) before any trial runs.
//
// A fixed-order selector's order (swim.FixedOrder) depends only on its
// policy and the Env's Hess and Weights, so it is ranked once per
// Sensitivity: every run of every pipeline built on one value shares it.
// An Env built as a literal makes its own cache from Hess and Weights on
// first use, which copies taken after that share. An Env must not change
// once a trial has been minted from it; to vary the context, build a new
// one.
type Env struct {
	Net     *nn.Network
	Device  device.Model
	Hess    []float64 // Hessian-diagonal sensitivities, flat mapped order
	Weights []float64 // |w| magnitudes, flat mapped order
	TrainX  *tensor.Tensor
	TrainY  []int
	InSitu  swim.InSituConfig

	// sens is the Sensitivity Hess and Weights belong to, which caches the
	// fixed orders (see fixedOrder). Set by New, or under sensMu on first
	// use for a literal.
	sens *Sensitivity
}

// sensMu guards the first use of a literal Env's sens. A run's trials mint
// their state concurrently from one *Env, and a lock held in Env itself
// would turn the per-run copies Pipeline takes into lock copies.
var sensMu sync.Mutex

// fixedOrder returns p's fixed order over env's Sensitivity, ranking it on
// first use; nil when p's selector draws its order per trial.
func (env *Env) fixedOrder(p *selectorPolicy) ([]int, error) {
	sensMu.Lock()
	if env.sens == nil {
		env.sens = &Sensitivity{hess: env.Hess, weights: env.Weights}
	}
	s := env.sens
	sensMu.Unlock()
	return s.order(p, env)
}

// Policy is a named strategy for spending a write budget on a mapped
// network. Policies are stateless and safe for concurrent use; all per-trial
// state lives in the Trial they mint.
type Policy interface {
	// Name identifies the policy in the registry and in Results.
	Name() string
	// NewTrial builds the per-trial programming state. r is the stream the
	// trial's stochastic choices (e.g. a random order) must come from; an
	// error means the Env lacks something the policy needs.
	NewTrial(env *Env, r *rng.Source) (Trial, error)
}

// Trial is one Monte-Carlo trial's programming strategy. A Trial is used
// with exactly one budget shape per run: SpendTo for NWC grids, Step for
// drop budgets.
type Trial interface {
	// SpendTo programs mp until its cumulative spend reaches nwc (normalized
	// write cycles), or the policy has nothing left to program.
	SpendTo(mp *mapping.Mapped, nwc float64, r *rng.Source)
	// Step advances the programming frontier by one granule of size
	// g ∈ (0, 1] — a fraction of the priority order for write-verify
	// policies, a fraction of the baseline write bill for in-situ — and
	// reports whether the policy is exhausted.
	Step(mp *mapping.Mapped, g float64, r *rng.Source) (exhausted bool)
}

// envValidator lets a policy check an Env without minting (and discarding)
// a full per-trial state — selector policies would otherwise pay a complete
// priority sort just for Run's preflight. Optional; policies without it are
// preflighted through NewTrial.
type envValidator interface {
	validateEnv(env *Env) error
}

// progresser reports how much of a trial's own programming frontier has been
// covered, for drop-budget traces. Optional; without it the pipeline
// approximates the fraction from granule counts over the full weight count,
// which over-reports for selectors whose order covers only a subset.
type progresser interface {
	progress() float64
}

// SelectorBacked is implemented by policies that rank weights with a
// swim.Selector (all built-ins except "insitu" and "noverify"). It lets
// callers that need a raw priority order — e.g. the Fig. 1 stratified
// sampler — reuse the registry instead of hard-coding a selector.
type SelectorBacked interface {
	Policy
	// Selector builds the policy's selector over env.
	Selector(env *Env) (swim.Selector, error)
}

// SelectorPolicy adapts a swim.Selector factory into a Policy, so custom
// rankings (tie-break ablations, Fisher sensitivities, ...) run on the same
// pipeline as the built-ins. build must depend on nothing but env. A
// selector carrying swim.FixedOrder must order by nothing but its policy
// and env's Hess and Weights: it is built and ranked once per Sensitivity
// and policy value, with a nil rng, and every trial of every run on that
// Sensitivity shares the order. Any other selector is built once per trial
// and draws its order from the trial's stream.
func SelectorPolicy(name string, build func(env *Env) (swim.Selector, error)) SelectorBacked {
	return &selectorPolicy{name: name, build: build}
}

type selectorPolicy struct {
	name  string
	build func(env *Env) (swim.Selector, error)
}

func (p *selectorPolicy) Name() string { return p.name }

func (p *selectorPolicy) Selector(env *Env) (swim.Selector, error) { return p.build(env) }

func (p *selectorPolicy) validateEnv(env *Env) error {
	_, err := p.build(env)
	return err
}

func (p *selectorPolicy) NewTrial(env *Env, r *rng.Source) (Trial, error) {
	order, err := env.fixedOrder(p)
	if err != nil {
		return nil, err
	}
	if order == nil {
		sel, err := p.build(env)
		if err != nil {
			return nil, err
		}
		order = sel.Order(r)
	}
	return &selectorTrial{order: order}, nil
}

// rankFixed builds the selector over env and, when it carries
// swim.FixedOrder, ranks it with a nil rng; otherwise it returns a nil
// order. A selector that claims the mark but reads its rng panics there,
// which becomes the returned error.
func (p *selectorPolicy) rankFixed(env *Env) (order []int, err error) {
	sel, err := p.build(env)
	if err != nil {
		return nil, err
	}
	if _, ok := sel.(swim.FixedOrder); !ok {
		return nil, nil
	}
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("selector %q is marked swim.FixedOrder but Order(nil) panicked: %v", sel.Name(), v)
		}
	}()
	return sel.Order(nil), nil
}

// selectorTrial spends budget by write-verifying along a fixed priority
// order, replicating swim.WriteVerifyToNWC (SpendTo) and the granule loop of
// swim.Algorithm1 (Step) exactly. order is read-only once set: fixed-order
// selectors share one order across trials, residualTrial builds its own per
// trial.
type selectorTrial struct {
	order    []int
	frontier int // weights advanced past by Step
}

func (t *selectorTrial) SpendTo(mp *mapping.Mapped, nwc float64, r *rng.Source) {
	swim.WriteVerifyToNWC(mp, t.order, nwc, r)
}

func (t *selectorTrial) Step(mp *mapping.Mapped, g float64, r *rng.Source) bool {
	n := len(t.order)
	end := t.frontier + granuleSize(g, n)
	if end > n {
		end = n
	}
	mp.WriteVerifyPrefix(t.order, end, r)
	t.frontier = end
	return end >= n
}

func (t *selectorTrial) progress() float64 {
	if len(t.order) == 0 {
		return 1
	}
	return float64(t.frontier) / float64(len(t.order))
}

// insituPolicy is the on-chip training baseline: unverified noisy writes,
// one cycle per weight per iteration, exactly swim.InSituToNWC's accounting.
type insituPolicy struct{}

func (insituPolicy) Name() string { return "insitu" }

func (insituPolicy) validateEnv(env *Env) error {
	if env.TrainX == nil || len(env.TrainY) == 0 {
		return errors.New("in-situ training needs a training set (use WithTraining)")
	}
	return nil
}

func (p insituPolicy) NewTrial(env *Env, r *rng.Source) (Trial, error) {
	if err := p.validateEnv(env); err != nil {
		return nil, err
	}
	return &insituTrial{x: env.TrainX, y: env.TrainY, cfg: env.InSitu}, nil
}

type insituTrial struct {
	x     *tensor.Tensor
	y     []int
	cfg   swim.InSituConfig
	start int // training-batch cursor, persisted across budget points
}

// SpendTo trains on device until the spend reaches nwc. Each step's
// forward and backward buffers come from mp's arena (swim.InSituStep), the
// pooled arena the trial's accuracy measurements use.
func (t *insituTrial) SpendTo(mp *mapping.Mapped, nwc float64, r *rng.Source) {
	budget := nwc * mp.BaselineCycles()
	for mp.CyclesUsed < budget {
		t.start = swim.InSituStep(mp, t.x, t.y, t.start, t.cfg, r)
	}
}

func (t *insituTrial) Step(mp *mapping.Mapped, g float64, r *rng.Source) bool {
	t.SpendTo(mp, mp.NWC()+g, r)
	return false // in-situ training never runs out of writes; cap with MaxNWC
}

// noverifyPolicy leaves every weight as the parallel programming pass landed
// it — the paper's NWC = 0 operating point as a first-class policy.
type noverifyPolicy struct{}

func (noverifyPolicy) Name() string { return "noverify" }

func (noverifyPolicy) NewTrial(*Env, *rng.Source) (Trial, error) { return noverifyTrial{}, nil }

type noverifyTrial struct{}

func (noverifyTrial) SpendTo(*mapping.Mapped, float64, *rng.Source) {}

func (noverifyTrial) Step(*mapping.Mapped, float64, *rng.Source) bool { return true }

func (noverifyTrial) readOnly() {}

func granuleSize(g float64, n int) int {
	size := int(math.Ceil(g * float64(n)))
	if size < 1 {
		size = 1
	}
	return size
}

func init() {
	MustRegister(SelectorPolicy("swim", func(env *Env) (swim.Selector, error) {
		if len(env.Hess) == 0 {
			return nil, errors.New("swim ranking needs sensitivities (use WithSensitivity or WithCalibration)")
		}
		if len(env.Hess) != len(env.Weights) {
			return nil, fmt.Errorf("sensitivity/weights length mismatch: %d vs %d", len(env.Hess), len(env.Weights))
		}
		return swim.NewSWIMSelector(env.Hess, env.Weights), nil
	}))
	MustRegister(SelectorPolicy("magnitude", func(env *Env) (swim.Selector, error) {
		if len(env.Weights) == 0 {
			return nil, errors.New("magnitude ranking needs weight magnitudes")
		}
		return swim.NewMagnitudeSelector(env.Weights), nil
	}))
	MustRegister(SelectorPolicy("random", func(env *Env) (swim.Selector, error) {
		return swim.NewRandomSelector(env.Net.NumMappedWeights()), nil
	}))
	MustRegister(insituPolicy{})
	MustRegister(noverifyPolicy{})
}
