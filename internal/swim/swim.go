// Package swim implements the paper's contribution: selective write-verify
// for computing-in-memory neural accelerators.
//
// The pipeline is:
//
//  1. Sensitivity — one forward + one second-derivative backward pass over a
//     calibration set yields the Hessian diagonal ∂²f/∂w² for every mapped
//     weight (paper §3.3). Eq. 5 shows the expected loss increase from
//     value-independent device noise is ½·Σ H_ii·Δw², so H_ii ranks how much
//     write-verifying weight i helps.
//  2. Selection — weights are ordered by a Selector: SWIM (Hessian diagonal,
//     magnitude tie-break), Magnitude (the intuitive baseline Fig. 1a
//     debunks), or Random.
//  3. Programming — Algorithm 1 write-verifies the ordered weights in
//     granules of p·|W0| until the accuracy drop is within budget, or the
//     fixed-budget variant write-verifies until a target NWC is spent.
//
// The in-situ training baseline (paper refs [13]) is also here: on-chip SGD
// against the noisy programmed weights with unverified writes.
package swim

import (
	"math"

	"swim/internal/data"
	"swim/internal/mapping"
	"swim/internal/nn"
	"swim/internal/rng"
	"swim/internal/tensor"
)

// Sensitivity computes the Hessian-diagonal sensitivity of every mapped
// weight of net over the calibration set (x, y), flattened in MappedParams
// order — the same order package mapping indexes weights. This is the
// paper's single-pass second-derivative computation: its cost equals one
// gradient epoch over the calibration set. Its buffers come from one arena
// reused across batches and dropped on return.
func Sensitivity(net *nn.Network, x *tensor.Tensor, y []int, batch int) []float64 {
	net.ZeroHess()
	scratch := tensor.NewArena()
	for _, b := range data.Batches(x, y, batch) {
		scratch.Reset()
		net.AccumulateHessian(b.X, b.Y, scratch)
	}
	var out []float64
	for _, p := range net.MappedParams() {
		out = append(out, p.Hess.Data...)
	}
	return out
}

// FlatWeights returns |w| of every mapped weight in MappedParams order
// (magnitudes are what both the magnitude baseline and the SWIM tie-break
// use).
func FlatWeights(net *nn.Network) []float64 {
	var out []float64
	for _, p := range net.MappedParams() {
		for _, v := range p.Data.Data {
			out = append(out, math.Abs(v))
		}
	}
	return out
}

// Selector produces a write-verify priority order (most critical first).
// Selectors whose Order ignores its rng say so by implementing FixedOrder.
type Selector interface {
	// Name identifies the selector in reports.
	Name() string
	// Order returns the priority permutation of [0, n). The rng lets
	// stochastic selectors (Random) reshuffle per Monte-Carlo trial;
	// deterministic selectors ignore it.
	Order(r *rng.Source) []int
}

// FixedOrder marks a Selector whose Order ignores its rng, so one order
// serves every Monte-Carlo trial: the program pipeline ranks such a
// selector once per program.Sensitivity and shares the result read-only
// across trials, runs and pipelines instead of re-sorting per trial. Callers computing a shared order pass a
// nil rng, so a selector that claims the mark but draws from its stream
// panics instead of silently reusing one draw. SWIMSelector (which
// NewFisherSelector also returns) and MagnitudeSelector carry it;
// RandomSelector does not.
type FixedOrder interface {
	Selector
	// FixedOrder is the marker method; it does nothing.
	FixedOrder()
}

// SWIMSelector ranks by second derivative, breaking ties by |w| (paper
// §3.2: "when two weights have the same second derivative, we use their
// magnitudes as the tie-breaker").
type SWIMSelector struct {
	Hess    []float64
	Weights []float64
}

// NewSWIMSelector builds the paper's selector from precomputed sensitivities
// and weight magnitudes.
func NewSWIMSelector(hess, weights []float64) *SWIMSelector {
	if len(hess) != len(weights) {
		panic("swim: hess/weights length mismatch")
	}
	return &SWIMSelector{Hess: hess, Weights: weights}
}

// Name implements Selector.
func (s *SWIMSelector) Name() string { return "swim" }

// FixedOrder implements FixedOrder: the ranking ignores the rng.
func (s *SWIMSelector) FixedOrder() {}

// Order implements Selector: second derivative descending, then |w|
// descending, then index ascending. The order is undefined for NaN inputs.
func (s *SWIMSelector) Order(*rng.Source) []int {
	return rankDescending(s.Hess, s.Weights)
}

// MagnitudeSelector ranks by |w| descending — the heuristic baseline the
// paper compares against.
type MagnitudeSelector struct {
	Weights []float64
}

// NewMagnitudeSelector builds the magnitude baseline selector.
func NewMagnitudeSelector(weights []float64) *MagnitudeSelector {
	return &MagnitudeSelector{Weights: weights}
}

// Name implements Selector.
func (s *MagnitudeSelector) Name() string { return "magnitude" }

// FixedOrder implements FixedOrder: the ranking ignores the rng.
func (s *MagnitudeSelector) FixedOrder() {}

// Order implements Selector: |w| descending, then index ascending. The
// order is undefined for NaN inputs.
func (s *MagnitudeSelector) Order(*rng.Source) []int {
	return rankDescending(s.Weights, nil)
}

// RandomSelector write-verifies weights in a fresh random order per trial.
type RandomSelector struct {
	N int
}

// NewRandomSelector builds the random baseline selector over n weights.
func NewRandomSelector(n int) *RandomSelector { return &RandomSelector{N: n} }

// Name implements Selector.
func (s *RandomSelector) Name() string { return "random" }

// Order implements Selector.
func (s *RandomSelector) Order(r *rng.Source) []int { return r.Perm(s.N) }

// WriteVerifyToNWC write-verifies weights along order until the trial's NWC
// meets target (or the order is exhausted), and returns the number of
// weights verified. This is the fixed-budget programming primitive behind
// Table 1 and Fig. 2, where each grid point fixes the write budget rather
// than the accuracy target.
func WriteVerifyToNWC(mp *mapping.Mapped, order []int, target float64, r *rng.Source) int {
	if target <= 0 {
		return 0
	}
	budget := target * mp.BaselineCycles()
	verified := 0
	for _, idx := range order {
		if mp.CyclesUsed >= budget {
			break
		}
		if !mp.Verified[idx] {
			mp.WriteVerifyAt(idx, r)
			verified++
		}
	}
	return verified
}

// Step records one granule of Algorithm 1.
type Step struct {
	FractionVerified float64
	NWC              float64
	Accuracy         float64
}

// Alg1Result is the outcome of the accuracy-targeted Algorithm 1 run.
type Alg1Result struct {
	Steps    []Step
	Achieved bool // accuracy drop ≤ maxDrop when the loop stopped
}

// Algorithm1 is the paper's Algorithm 1: write-verify the weights in
// priority order, a granule of granularity·|W0| at a time, re-evaluating the
// mapped accuracy after each granule and stopping as soon as the drop from
// baseAcc is at most maxDrop (percentage points). The paper uses granularity
// p = 5% as "sufficient ... while also avoiding too frequent evaluation".
func Algorithm1(mp *mapping.Mapped, sel Selector, granularity, baseAcc, maxDrop float64,
	evalX *tensor.Tensor, evalY []int, batch int, r *rng.Source) Alg1Result {

	if granularity <= 0 || granularity > 1 {
		panic("swim: granularity must be in (0, 1]")
	}
	order := sel.Order(r)
	n := mp.TotalWeights()
	granule := int(math.Ceil(granularity * float64(n)))
	var res Alg1Result

	// Step 0: accuracy right after the parallel (unverified) programming.
	acc := mp.Accuracy(evalX, evalY, batch)
	res.Steps = append(res.Steps, Step{0, mp.NWC(), acc})
	if baseAcc-acc <= maxDrop {
		res.Achieved = true
		return res
	}
	for done := 0; done < n; {
		end := done + granule
		if end > n {
			end = n
		}
		mp.WriteVerifyPrefix(order, end, r)
		done = end
		acc = mp.Accuracy(evalX, evalY, batch)
		res.Steps = append(res.Steps, Step{float64(done) / float64(n), mp.NWC(), acc})
		if baseAcc-acc <= maxDrop {
			res.Achieved = true
			break
		}
	}
	return res
}

// InSituConfig controls the on-chip training baseline.
type InSituConfig struct {
	LR    float64
	Batch int
}

// DefaultInSitu returns the in-situ baseline configuration.
func DefaultInSitu() InSituConfig { return InSituConfig{LR: 0.005, Batch: 32} }

// InSituStep performs one iteration of on-chip in-situ training: a
// forward/backward pass under the currently programmed (noisy) weights on
// one training batch, followed by an unverified noisy write of every mapped
// weight (one write cycle each) and a free digital update of unmapped
// parameters. batchStart cycles through the training set. The pass's
// buffers come from mp's arena (Mapped.Arena), which it resets first: a
// step allocates nothing once that arena has grown to its size.
func InSituStep(mp *mapping.Mapped, trainX *tensor.Tensor, trainY []int, batchStart int,
	cfg InSituConfig, r *rng.Source) (nextStart int) {

	n := trainX.Shape[0]
	sample := trainX.Size() / n
	end := batchStart + cfg.Batch
	if end > n {
		end = n
	}
	scratch := mp.Arena()
	scratch.Reset()
	var shape [4]int
	shape[0] = end - batchStart
	dims := 1 + copy(shape[1:], trainX.Shape[1:])
	bx := scratch.View(trainX.Data[batchStart*sample:end*sample], shape[:dims]...)
	by := trainY[batchStart:end]

	net := mp.Net
	net.ZeroGrad()
	net.LossGrad(bx, by, true, scratch)

	// Mapped weights: apply one incremental (unverified) update pulse per
	// weight — one write cycle each, per the paper's in-situ accounting.
	flat := 0
	for _, p := range net.MappedParams() {
		for off := range p.Data.Data {
			mp.IncrementAt(flat, -cfg.LR*p.Grad.Data[off], r)
			flat++
		}
	}
	// Digital parameters (biases, batch-norm affine) update exactly.
	for _, p := range net.Params() {
		if p.Mapped {
			continue
		}
		p.Data.AddScaled(-cfg.LR, p.Grad)
	}
	if end == n {
		return 0
	}
	return end
}

// InSituToNWC runs in-situ iterations until the write bill reaches target
// NWC, returning the number of iterations performed. NWC may exceed 1.0 for
// in-situ training (paper §4.2).
func InSituToNWC(mp *mapping.Mapped, trainX *tensor.Tensor, trainY []int, target float64,
	cfg InSituConfig, r *rng.Source) int {

	budget := target * mp.BaselineCycles()
	iters := 0
	start := 0
	for mp.CyclesUsed < budget {
		start = InSituStep(mp, trainX, trainY, start, cfg, r)
		iters++
	}
	return iters
}
