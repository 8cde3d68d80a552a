package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"

	"swim/internal/data"
	"swim/internal/device"
	"swim/internal/eval"
	"swim/internal/mapping"
	"swim/internal/mc"
	"swim/internal/nn"
	"swim/internal/nonideal"
	"swim/internal/plot"
	"swim/internal/program"
	"swim/internal/quant"
	"swim/internal/rng"
	"swim/internal/stat"
	"swim/internal/tensor"
	"swim/internal/train"
)

// Fig1Config parameterizes the Fig. 1 correlation study.
type Fig1Config struct {
	// NumWeights is how many randomly sampled weights to perturb.
	NumWeights int
	// Repeats is the Monte-Carlo repeats per weight (paper: 100).
	Repeats int
	// SigmaPerturb is the std of the additive perturbation in weight-LSB
	// units. The paper perturbs "with the same additive Gaussian noise based
	// on [13]" — large enough that single weights measurably move accuracy.
	SigmaPerturb float64
	// EvalN caps the evaluation subset (accuracy must be re-measured per
	// perturbation, which dominates the cost).
	EvalN int
	// EvalBatch is the accuracy-measurement batch size (0 = 64).
	EvalBatch int
	// Rank names the selector-backed registry policy whose ordering
	// stratifies half the sample across the sensitivity range ("" = swim).
	Rank string
	Seed uint64
	// Nonideal, when non-empty, maps every trial clone onto ideal
	// (noise-free) devices degraded by this read-time scenario before
	// perturbing — does the sensitivity ranking still predict accuracy
	// drops on drifted or faulty hardware? ReadTime is the scenario's
	// evaluation instant in seconds.
	Nonideal []nonideal.Nonideality
	ReadTime float64
}

// DefaultFig1 returns the Fig. 1 configuration.
func DefaultFig1() Fig1Config {
	return Fig1Config{NumWeights: 100, Repeats: 6, SigmaPerturb: 3.0, EvalN: 300,
		EvalBatch: 64, Rank: "swim", Seed: 77}
}

// Fig1Result holds the per-weight scatter data of Fig. 1 and the correlation
// coefficients the paper quotes (|r| low for magnitude, ≈0.83 for the second
// derivative).
type Fig1Result struct {
	Magnitude []float64 // |w| of each sampled weight
	Hess      []float64 // second derivative of each sampled weight
	Drop      []float64 // mean accuracy drop (percentage points)

	PearsonMagnitude float64
	PearsonHess      float64
	SpearmanHess     float64
}

// Fig1Ranking resolves Fig1Config.Rank ("" = swim) to the registry policy
// whose ranking stratifies the weight sample; a policy without a weight
// ranking is an error.
func Fig1Ranking(name string) (program.SelectorBacked, error) {
	if name == "" {
		name = "swim"
	}
	pol, err := program.Lookup(name)
	if err != nil {
		return nil, err
	}
	ranked, ok := pol.(program.SelectorBacked)
	if !ok {
		return nil, fmt.Errorf("policy %q has no weight ranking", name)
	}
	return ranked, nil
}

// Fig1 reproduces the paper's Fig. 1 experiment: perturb individual weights
// with value-independent Gaussian noise, record the mean accuracy drop over
// repeats, and correlate the drop against weight magnitude (Fig. 1a — weak)
// and against the second derivative (Fig. 1b — strong). The sampled weights
// are measured in parallel via mc.MapCtx: every weight perturbs its own clone
// of the master network, so the drops are deterministic in the seed and
// independent of the worker count.
func Fig1(w *Workload, cfg Fig1Config) (Fig1Result, error) {
	batch := cfg.EvalBatch
	if batch <= 0 {
		batch = 64
	}
	r := rng.New(cfg.Seed)
	evalX, evalY := data.Subset(w.DS.TestX, w.DS.TestY, cfg.EvalN)
	baseAcc := train.Evaluate(w.TrialNet(), evalX, evalY, batch)

	// Per-parameter quantization scales convert LSB-unit perturbations to
	// float weight units, exactly as the mapping path does.
	masterParams := w.Net.MappedParams()
	scales := make([]float64, len(masterParams))
	for i, p := range masterParams {
		scales[i] = quant.ScaleFor(p.Data, w.WeightBits)
	}
	total := len(w.Weights)

	// Sample half the weights uniformly and half stratified across the
	// ranking of the configured selector policy. Pure uniform sampling lands
	// almost entirely on zero-sensitivity weights (the tie-break ablation
	// shows they are the majority), which pins most drops at exactly zero
	// and attenuates the correlations; the paper's scatter visibly spans the
	// sensitivity range.
	ranked, err := Fig1Ranking(cfg.Rank)
	if err != nil {
		return Fig1Result{}, fmt.Errorf("fig1 on %s: %w", w.Name, err)
	}
	sel, err := ranked.Selector(&program.Env{Net: w.Net, Hess: w.Hess, Weights: w.Weights})
	if err != nil {
		return Fig1Result{}, fmt.Errorf("fig1 on %s: %w", w.Name, err)
	}
	order := sel.Order(rng.New(cfg.Seed ^ 0x0a9de9))
	span := len(order) / 2
	picks := make([]int, 0, cfg.NumWeights)
	for k := 0; k < cfg.NumWeights/2; k++ {
		picks = append(picks, order[k*span/(cfg.NumWeights/2)])
	}
	for len(picks) < cfg.NumWeights {
		picks = append(picks, r.Intn(total))
	}

	// Resolve every pick to (param index, offset) once on the master — the
	// clone layout is identical — instead of building a locator per trial.
	loc := mapping.NewLocator(masterParams)
	pis := make([]int, len(picks))
	offs := make([]int, len(picks))
	for k, flat := range picks {
		pis[k], offs[k] = loc.Locate(flat)
	}

	// Under a -nonideal scenario each trial clone is first mapped onto
	// ideal (σ = 0) devices and degraded at the configured read time, so
	// the study measures whether the ranking survives realistic hardware.
	// The device model and cycle table are built once; per-trial instances
	// come from the trial stream.
	var degradeDM device.Model
	var degradeTable []float64
	degrade := func(r *rng.Source) (*nn.Network, error) { return w.TrialNet(), nil }
	if len(cfg.Nonideal) > 0 {
		degradeDM = device.Default(w.WeightBits, 0)
		degradeTable = degradeDM.CycleTable(10, rng.New(cfg.Seed^0xdeb))
		degrade = func(r *rng.Source) (*nn.Network, error) {
			mp, err := mapping.New(w.Net, degradeDM, degradeTable, r.Split())
			if err != nil {
				return nil, err
			}
			mp.SetNonideal(nonideal.NewTrials(cfg.Nonideal, degradeDM, r.Split()), cfg.ReadTime)
			return mp.Net, nil
		}
	}

	// Per-trial failures flow back through the error return rather than
	// panicking a worker, so the caller sees the error itself.
	type fig1Out struct {
		drop float64
		err  error
	}
	// Trials borrow their evaluation arena — scratch plus the binding's
	// checkpoints — from a pool, so each worker reuses one.
	var arenas sync.Pool
	outs, mapErr := mc.MapCtx(context.Background(), cfg.Seed^0xf161, len(picks), 0, func(k int, r *rng.Source) fig1Out {
		net, err := degrade(r)
		if err != nil {
			return fig1Out{err: err}
		}
		pi, off := pis[k], offs[k]
		p := net.MappedParams()[pi]
		orig := p.Data.Data[off]
		// One evaluation binding per clone: plans read live weights, so the
		// per-repeat perturbations are visible without recompiling, and
		// each repeat re-runs only the layers from the perturbed weight's.
		arena, _ := arenas.Get().(*tensor.Arena)
		if arena == nil {
			arena = tensor.NewArena()
		}
		defer arenas.Put(arena)
		bound, err := eval.NewEvaluator(net, arena).Bind(evalX, evalY, batch)
		if err != nil {
			return fig1Out{err: err}
		}
		base := baseAcc
		if len(cfg.Nonideal) > 0 {
			// The degraded clone's baseline differs per trial (its faults
			// and drift are trial-specific), so measure it in place.
			if base, err = bound.Accuracy(); err != nil {
				return fig1Out{err: err}
			}
		}
		var acc stat.Welford
		for rep := 0; rep < cfg.Repeats; rep++ {
			p.Data.Data[off] = orig + r.Gauss(0, cfg.SigmaPerturb*scales[pi])
			a, err := bound.Accuracy()
			if err != nil {
				return fig1Out{err: err}
			}
			acc.Add(a)
		}
		return fig1Out{drop: base - acc.Mean()}
	})
	if mapErr != nil {
		return Fig1Result{}, fmt.Errorf("fig1 on %s: %w", w.Name, mapErr)
	}
	for _, o := range outs {
		if o.err != nil {
			return Fig1Result{}, fmt.Errorf("fig1 on %s: %w", w.Name, o.err)
		}
	}

	var res Fig1Result
	for k, flat := range picks {
		res.Magnitude = append(res.Magnitude, w.Weights[flat])
		res.Hess = append(res.Hess, w.Hess[flat])
		res.Drop = append(res.Drop, outs[k].drop)
	}
	res.PearsonMagnitude = stat.Pearson(res.Magnitude, res.Drop)
	res.PearsonHess = stat.Pearson(res.Hess, res.Drop)
	res.SpearmanHess = stat.Spearman(res.Hess, res.Drop)
	return res, nil
}

// PrintFig1 renders the correlation summary.
func PrintFig1(out io.Writer, w *Workload, cfg Fig1Config, res Fig1Result) {
	fmt.Fprintf(out, "Fig. 1: per-weight perturbation study on %s (%d weights, %d repeats, sigma=%.1f LSB)\n",
		w.Name, cfg.NumWeights, cfg.Repeats, cfg.SigmaPerturb)
	if len(cfg.Nonideal) > 0 {
		fmt.Fprintf(out, "  device scenario: %s read at t=%s\n",
			nonideal.StackString(cfg.Nonideal), FormatDuration(cfg.ReadTime))
	}
	fmt.Fprintf(out, "  Pearson(|w|,  accuracy drop)       = %+.3f   (paper Fig. 1a: little correlation)\n", res.PearsonMagnitude)
	fmt.Fprintf(out, "  Pearson(d2f/dw2, accuracy drop)    = %+.3f   (paper Fig. 1b: strong, 0.83)\n", res.PearsonHess)
	fmt.Fprintf(out, "  Spearman(d2f/dw2, accuracy drop)   = %+.3f\n", res.SpearmanHess)
	fmt.Fprintln(out, "  scatter (weight magnitude, second derivative, drop pp):")
	for i := range res.Drop {
		fmt.Fprintf(out, "    %8.4f %12.6g %8.3f\n", res.Magnitude[i], res.Hess[i], res.Drop[i])
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, plot.Scatter("Fig. 1a: drop vs weight magnitude",
		"|w|", "accuracy drop (pp)", res.Magnitude, res.Drop, 56, 14))
	fmt.Fprintln(out, plot.Scatter("Fig. 1b: drop vs second derivative",
		"d2f/dw2", "accuracy drop (pp)", res.Hess, res.Drop, 56, 14))
}
