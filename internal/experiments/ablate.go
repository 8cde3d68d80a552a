package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"swim/internal/data"
	"swim/internal/device"
	"swim/internal/mapping"
	"swim/internal/nn"
	"swim/internal/program"
	"swim/internal/rng"
	"swim/internal/stat"
	"swim/internal/swim"
	"swim/internal/tensor"
)

// pointCell runs one policy at a single write budget through the pipeline
// and returns the accuracy cell — the primitive every probe-budget ablation
// shares. It evaluates on the full test split with the workload's cached
// sensitivity data.
func pointCell(w *Workload, pol program.Policy, sigma float64, table []float64,
	nwc float64, scn ReadScenario, trials int, seed uint64) (Cell, error) {

	p, err := program.New(w.Net, pol, program.GridBudget(nwc),
		append(append(w.Options(sigma), scn.Options()...),
			program.WithCycleTable(table),
			program.WithSeed(seed),
			program.WithTrials(trials))...)
	if err != nil {
		return Cell{}, err
	}
	res, err := p.Run(context.Background())
	if err != nil {
		return Cell{}, err
	}
	return cellOf(res.Points[0].Accuracy), nil
}

// GranularityResult is one row of the Algorithm-1 granularity ablation.
type GranularityResult struct {
	Granularity float64
	NWC         Cell // NWC spent when the accuracy target was met
	Evals       Cell // accuracy evaluations performed (the cost p trades off)
	Achieved    int  // trials that met the target
	Trials      int
}

// AblateGranularity justifies the paper's p = 5% choice (§3.1): finer
// granules stop write-verifying sooner (lower NWC) but cost more accuracy
// evaluations of the mapped network; coarser granules overshoot the write
// budget. The ablation runs a drop-budget pipeline with the given policy at
// several granularities and a fixed accuracy-drop target. A run in which no
// trial meets the target is still a valid row (Achieved = 0), so the
// pipeline's ErrBudgetExhausted is tolerated rather than propagated.
func AblateGranularity(w *Workload, pol program.Policy, sigma, maxDrop float64,
	ps []float64, scn ReadScenario, trials int, seed uint64) ([]GranularityResult, error) {

	dm := w.DeviceFor(sigma)
	table := dm.CycleTable(300, rng.New(seed^0xab1a7e))
	budget := program.DropBudget(w.CleanAcc, maxDrop)
	// Policies that never exhaust themselves (in-situ) need a spend cap;
	// 8× the full write-verify bill is far beyond any selector policy.
	budget.MaxNWC = 8
	var out []GranularityResult
	for _, gp := range ps {
		p, err := program.New(w.Net, pol, budget,
			append(append(w.Options(sigma), scn.Options()...),
				program.WithCycleTable(table),
				program.WithGranularity(gp),
				program.WithSeed(seed),
				program.WithTrials(trials))...)
		if err != nil {
			return nil, fmt.Errorf("granularity ablation at p=%.3f: %w", gp, err)
		}
		res, err := p.Run(context.Background())
		if err != nil && !errors.Is(err, program.ErrBudgetExhausted) {
			return nil, fmt.Errorf("granularity ablation at p=%.3f: %w", gp, err)
		}
		out = append(out, GranularityResult{
			Granularity: gp,
			NWC:         cellOf(res.NWC),
			Evals:       cellOf(res.Evals),
			Achieved:    res.Achieved,
			Trials:      trials,
		})
	}
	return out, nil
}

// PrintGranularity renders the granularity ablation.
func PrintGranularity(out io.Writer, w *Workload, maxDrop float64, rows []GranularityResult) {
	fmt.Fprintf(out, "Ablation: Algorithm 1 granularity p on %s (target drop <= %.2f pp)\n", w.Name, maxDrop)
	fmt.Fprintf(out, "%-8s %-16s %-16s %s\n", "p", "NWC at stop", "accuracy evals", "achieved")
	for _, row := range rows {
		fmt.Fprintf(out, "%-8.3f %-16s %-16s %d/%d\n",
			row.Granularity, row.NWC, row.Evals, row.Achieved, row.Trials)
	}
}

// TieBreakResult compares SWIM with and without the magnitude tie-breaker.
type TieBreakResult struct {
	NWC          float64
	WithTie      Cell
	WithoutTie   Cell
	TiedFraction float64 // fraction of weights sharing a second derivative with another weight
}

// noTieSelector orders purely by Hessian value, ties left in index order.
type noTieSelector struct{ hess []float64 }

func (s *noTieSelector) Name() string { return "swim-no-tiebreak" }
func (s *noTieSelector) FixedOrder()  {}
func (s *noTieSelector) Order(*rng.Source) []int {
	idx := make([]int, len(s.hess))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.hess[idx[a]] > s.hess[idx[b]] })
	return idx
}

// AblateTieBreak measures whether the paper's magnitude tie-breaker (§3.2)
// matters at a given write budget. Ties are common in ReLU networks: weights
// behind dead activations share an exactly-zero second derivative. The
// no-tiebreak variant runs as an unregistered SelectorPolicy on the same
// pipeline as the built-in.
func AblateTieBreak(w *Workload, sigma, nwc float64, scn ReadScenario, trials int, seed uint64) (TieBreakResult, error) {
	dm := w.DeviceFor(sigma)
	table := dm.CycleTable(300, rng.New(seed^0x7eb4))

	counts := map[float64]int{}
	for _, h := range w.Hess {
		counts[h]++
	}
	tied := 0
	for _, h := range w.Hess {
		if counts[h] > 1 {
			tied++
		}
	}

	swimPol, err := program.Lookup("swim")
	if err != nil {
		return TieBreakResult{}, err
	}
	noTie := program.SelectorPolicy("swim-no-tiebreak", func(env *program.Env) (swim.Selector, error) {
		return &noTieSelector{hess: env.Hess}, nil
	})
	withTie, err := pointCell(w, swimPol, sigma, table, nwc, scn, trials, seed)
	if err != nil {
		return TieBreakResult{}, fmt.Errorf("tie-break ablation: %w", err)
	}
	withoutTie, err := pointCell(w, noTie, sigma, table, nwc, scn, trials, seed)
	if err != nil {
		return TieBreakResult{}, fmt.Errorf("tie-break ablation: %w", err)
	}
	return TieBreakResult{
		NWC:          nwc,
		WithTie:      withTie,
		WithoutTie:   withoutTie,
		TiedFraction: float64(tied) / float64(len(w.Hess)),
	}, nil
}

// KBitsResult is one row of the device bit-width ablation.
type KBitsResult struct {
	K        int
	Devices  int
	NoiseStd float64 // unverified weight-level noise (LSB units, Eq. 16)
	NoVerify Cell    // accuracy with no write-verify
	AtNWC    Cell    // accuracy with the policy at the probe NWC
}

// AblateDeviceBits sweeps K, the bits per device (Eq. 15). Fewer bits per
// device means more devices per weight, which changes both the Eq. 16 noise
// amplification and the write-verify cost structure. The no-verify rows run
// the registered "noverify" policy; the probe rows run pol.
func AblateDeviceBits(w *Workload, pol program.Policy, sigma, nwc float64,
	ks []int, scn ReadScenario, trials int, seed uint64) ([]KBitsResult, error) {

	noVerify, err := program.Lookup("noverify")
	if err != nil {
		return nil, err
	}
	var out []KBitsResult
	for _, k := range ks {
		dm := w.DeviceFor(sigma)
		dm.DeviceBits = k
		table := dm.CycleTable(300, rng.New(seed^uint64(k)))
		run := func(p program.Policy, target float64, seed uint64) (Cell, error) {
			// The workload's standard options, then the K-modified device
			// on top (options apply in order, so the later WithDevice
			// wins) — keeping the training split available for -policy
			// insitu runs.
			pl, err := program.New(w.Net, p, program.GridBudget(target),
				append(append(w.Options(sigma), scn.Options()...),
					program.WithDevice(dm),
					program.WithCycleTable(table),
					program.WithSeed(seed),
					program.WithTrials(trials))...)
			if err != nil {
				return Cell{}, fmt.Errorf("kbits ablation at K=%d: %w", k, err)
			}
			res, err := pl.Run(context.Background())
			if err != nil {
				return Cell{}, fmt.Errorf("kbits ablation at K=%d: %w", k, err)
			}
			return cellOf(res.Points[0].Accuracy), nil
		}
		noVer, err := run(noVerify, 0, seed+uint64(k))
		if err != nil {
			return nil, err
		}
		at, err := run(pol, nwc, seed+uint64(k)+999)
		if err != nil {
			return nil, err
		}
		out = append(out, KBitsResult{
			K: k, Devices: dm.NumDevices(), NoiseStd: dm.NoiseStd(),
			NoVerify: noVer,
			AtNWC:    at,
		})
	}
	return out, nil
}

// PrintKBits renders the device bit-width ablation for the named policy.
func PrintKBits(out io.Writer, w *Workload, policy string, sigma, nwc float64, rows []KBitsResult) {
	fmt.Fprintf(out, "Ablation: device bits K on %s (sigma=%.2f, %s at NWC=%.1f)\n", w.Name, sigma, policy, nwc)
	fmt.Fprintf(out, "%-4s %-8s %-12s %-16s %s\n", "K", "devices", "noise(LSB)", "no write-verify", policy)
	for _, row := range rows {
		fmt.Fprintf(out, "%-4d %-8d %-12.3f %-16s %s\n",
			row.K, row.Devices, row.NoiseStd, row.NoVerify, row.AtNWC)
	}
}

// SpatialResult is one row of the spatial-variation extension experiment.
type SpatialResult struct {
	Label    string
	NoVerify Cell
	SWIMAt   Cell
}

// AblateSpatial exercises the §2.1 extension: programming under combined
// temporal + spatial (globally and locally correlated) variation, with and
// without write-verify at the probe budget. One pipeline run covers both
// cells of a row: the NWC grid {0, nwc} measures the unverified accuracy and
// the post-verify accuracy on the same device instance per trial.
// Write-verify corrects the read-back error whatever its source, so the
// policy's recovery should survive the extra variation — the claim the paper
// defers to future work.
func AblateSpatial(w *Workload, pol program.Policy, sigma, nwc float64,
	scn ReadScenario, trials int, seed uint64) ([]SpatialResult, error) {

	dm := w.DeviceFor(sigma)
	table := dm.CycleTable(300, rng.New(seed^0x59a7))
	side := 1
	for side*side < w.Net.NumMappedWeights() {
		side *= 2
	}
	scfg := device.DefaultSpatial(side, side)

	run := func(spatial bool, seed uint64) (SpatialResult, error) {
		label := "temporal only"
		opts := append(append(w.Options(sigma), scn.Options()...),
			program.WithCycleTable(table),
			program.WithSeed(seed),
			program.WithTrials(trials))
		if spatial {
			label = "temporal + spatial"
			opts = append(opts, program.WithSpatial(scfg))
		}
		p, err := program.New(w.Net, pol, program.GridBudget(0, nwc), opts...)
		if err != nil {
			return SpatialResult{}, fmt.Errorf("spatial ablation (%s): %w", label, err)
		}
		res, err := p.Run(context.Background())
		if err != nil {
			return SpatialResult{}, fmt.Errorf("spatial ablation (%s): %w", label, err)
		}
		return SpatialResult{Label: label,
			NoVerify: cellOf(res.Points[0].Accuracy),
			SWIMAt:   cellOf(res.Points[1].Accuracy)}, nil
	}
	temporal, err := run(false, seed)
	if err != nil {
		return nil, err
	}
	both, err := run(true, seed+1)
	if err != nil {
		return nil, err
	}
	return []SpatialResult{temporal, both}, nil
}

// PrintSpatial renders the spatial-extension experiment for the named policy.
func PrintSpatial(out io.Writer, w *Workload, policy string, nwc float64, rows []SpatialResult) {
	fmt.Fprintf(out, "Extension: spatial variation (sec 2.1) on %s, %s at NWC=%.1f\n", w.Name, policy, nwc)
	fmt.Fprintf(out, "%-22s %-16s %s\n", "variation", "no write-verify", policy)
	for _, r := range rows {
		fmt.Fprintf(out, "%-22s %-16s %s\n", r.Label, r.NoVerify, r.SWIMAt)
	}
}

// CompareFisher pits SWIM's Hessian-diagonal ranking against the
// empirical-Fisher (squared gradient) alternative at the probe budget, both
// running as policies on the same pipeline.
func CompareFisher(w *Workload, sigma, nwc float64, scn ReadScenario, trials int, seed uint64) (swimCell, fisherCell Cell, err error) {
	dm := w.DeviceFor(sigma)
	table := dm.CycleTable(300, rng.New(seed^0xf15e))
	cx, cy := data.Subset(w.DS.TrainX, w.DS.TrainY, 384)
	fisher := swim.FisherSensitivity(w.Net, cx, cy, 64)
	swimPol, err := program.Lookup("swim")
	if err != nil {
		return Cell{}, Cell{}, err
	}
	fisherPol := program.SelectorPolicy("fisher", func(env *program.Env) (swim.Selector, error) {
		return swim.NewFisherSelector(fisher, env.Weights), nil
	})
	if swimCell, err = pointCell(w, swimPol, sigma, table, nwc, scn, trials, seed); err != nil {
		return Cell{}, Cell{}, fmt.Errorf("fisher comparison: %w", err)
	}
	if fisherCell, err = pointCell(w, fisherPol, sigma, table, nwc, scn, trials, seed); err != nil {
		return Cell{}, Cell{}, fmt.Errorf("fisher comparison: %w", err)
	}
	return swimCell, fisherCell, nil
}

// HessianQuality compares the analytic second derivatives against central
// finite differences of the true loss on a weight sample (the Eq. 4→5
// diagonal-approximation ablation). It returns the Spearman rank correlation
// — ranking quality is what selection actually consumes.
func HessianQuality(w *Workload, sample int, seed uint64) float64 {
	// Finite differences need the smooth underlying network: the activation
	// quantizers make the loss a staircase whose jumps (≈ one activation
	// LSB) swamp the O(eps²) curvature signal. Disable them on a clone and
	// recompute the analytic diagonal on that same smooth network so the two
	// sides of the comparison see the identical function.
	net := w.Net.Clone()
	nn.Walk(net.Trunk, func(l nn.Layer) {
		if q, ok := l.(*nn.QuantAct); ok {
			q.Disabled = true
		}
	})
	params := net.MappedParams()
	loc := mapping.NewLocator(params)
	evalX, evalY := data.Subset(w.DS.TrainX, w.DS.TrainY, 256)

	scratch := tensor.NewArena()
	net.ZeroHess()
	for _, b := range data.Batches(evalX, evalY, 64) {
		scratch.Reset()
		net.AccumulateHessian(b.X, b.Y, scratch)
	}
	var hess []float64
	for _, p := range params {
		hess = append(hess, p.Hess.Data...)
	}

	lossAt := func() float64 {
		total, batches := 0.0, 0
		for _, b := range data.Batches(evalX, evalY, 64) {
			scratch.Reset()
			total += net.EvalLoss(b.X, b.Y, scratch)
			batches++
		}
		return total / float64(batches)
	}

	// Random sampling would land mostly on zero-sensitivity weights (dead
	// ReLU paths; the tie-break ablation shows they are the majority), where
	// both the analytic and FD values are zero and rank correlation
	// degenerates. Stratify instead: walk the sensitivity ordering at even
	// strides so the sample spans the full dynamic range the selector
	// actually discriminates over.
	order := swim.NewSWIMSelector(hess, swim.FlatWeights(net)).Order(rng.New(seed))
	span := len(order) / 2 // top half: where selection decisions happen
	if sample > span {
		sample = span
	}
	var analytic, fd []float64
	const eps = 1e-3
	f0 := lossAt()
	for k := 0; k < sample; k++ {
		flat := order[k*span/sample]
		p, off := loc.Param(flat)
		orig := p.Data.Data[off]
		p.Data.Data[off] = orig + eps
		fp := lossAt()
		p.Data.Data[off] = orig - eps
		fm := lossAt()
		p.Data.Data[off] = orig
		analytic = append(analytic, hess[flat])
		fd = append(fd, (fp-2*f0+fm)/(eps*eps))
	}
	return stat.Spearman(analytic, fd)
}
