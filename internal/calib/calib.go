// Package calib is the closed-loop calibration tier: fitted digital
// correction of the analog read-out, sitting between the nonideality models
// (package nonideal, which only degrade) and accuracy evaluation. Real nvCiM
// flows do not read degraded weights raw — they probe the array with known
// inputs, fit a cheap parametric error model, and undo the systematic
// component of the error digitally at the ADC output. This package provides
// that stage as a spec registry of calibration models (Register / Parse,
// see package spec).
//
// # Fit contract
//
// A calibration model observes the array exactly the way hardware can: a
// bounded budget of probe reads. One probe drives a single word line with a
// unit input (a one-hot MatVec), which reveals the degraded value of one
// weight column across every output row. From the probed (degraded, ideal)
// pairs the model estimates the degradation itself per group — per bit-line
// column for "gainoffset", per crossbar tile for "pertile" — by least
// squares of degraded on desired, and applies the inverse:
//
//	degraded ≈ A·desired + B   ⇒   corrected = (degraded − B̂) / Â
//
// Fitting in that direction keeps Â unbiased under unsystematic read noise
// (the noise lives in the response, so there is no attenuation bias pulling
// the slope down), and each coefficient is shrunk toward its identity value
// by a positive-part rule against its own estimation variance — a
// coefficient within one standard error of the identity is dropped. A
// systematic, genuinely affine degradation (conductance drift) therefore
// keeps its full inverse, while noise-dominated data collapses to a no-op
// instead of injecting coherent per-group estimation error. Groups with
// fewer than two usable samples fall back to a pure mean-error offset, a
// group whose probed targets are one constant maps every read to that
// constant, and a group with no samples at all falls back to the identity.
// The correction is a pure function of the probed values, so applying it
// never consumes randomness.
//
// # Probe-budget determinism
//
// Which columns are probed is drawn from a hash-derived stream keyed by
// (trial key, matrix index), exactly like package nonideal keys per-device
// randomness: the trial key is the single Uint64 NewTrial consumes from the
// trial stream, and every matrix mixes it with its index through a SplitMix64
// finalizer. Fit is therefore pure in (trial key, matrix, data) — it can run
// any number of times, on any worker, in any shard of the trial space, and
// produce identical bits.
package calib

import (
	"fmt"
	"sort"

	"swim/internal/rng"
)

// Model is a configured calibration model. Build one with Parse or a
// registered builder; the zero value is invalid (Validate rejects it).
type Model struct {
	name   string
	spec   string
	probes int
	// tileRows/tileCols bound one correction group for tile-granular
	// models; both zero means per-column grouping.
	tileRows, tileCols int
}

// Name returns the registry name the model was built under.
func (m Model) Name() string { return m.name }

// Spec returns the model's canonical spec string — the registry name with
// every parameter spelled out in sorted order. Parse(Spec()) rebuilds the
// identical model, which is what lets the spec act as a cache-key axis.
func (m Model) Spec() string { return m.spec }

// Probes returns the per-matrix probe-read budget: how many weight columns
// the fit may observe per mapped matrix.
func (m Model) Probes() int { return m.probes }

// Validate checks the model. The zero Model (not built through the registry)
// is invalid.
func (m Model) Validate() error {
	if m.name == "" || m.spec == "" {
		return fmt.Errorf("calib: zero model (build one with calib.Parse)")
	}
	if m.probes < 2 {
		return fmt.Errorf("calib: model %q needs probes >= 2, got %d", m.name, m.probes)
	}
	if (m.tileRows != 0) != (m.tileCols != 0) || m.tileRows < 0 || m.tileCols < 0 {
		return fmt.Errorf("calib: model %q has bad tile geometry %dx%d", m.name, m.tileRows, m.tileCols)
	}
	return nil
}

// NewTrial mints the per-trial calibration instance. It consumes exactly one
// Uint64 from r — the trial key every probe choice derives from — so adding
// calibration to a pipeline shifts the trial stream by a fixed amount
// regardless of network size or probe budget.
func (m Model) NewTrial(r *rng.Source) *Calibrator {
	return &Calibrator{m: m, key: r.Uint64()}
}

// Calibrator is one Monte-Carlo trial's calibration instance: the model plus
// the trial key its probe choices derive from. Fit is pure — safe to call
// repeatedly and from any worker with identical results.
type Calibrator struct {
	m   Model
	key uint64
}

// Probes returns the per-matrix probe-read budget.
func (c *Calibrator) Probes() int { return c.m.probes }

// Spec returns the canonical spec of the model that minted this instance.
func (c *Calibrator) Spec() string { return c.m.spec }

// Fit fits the correction for one mapped weight matrix. desired and degraded
// are the ideal (quantized target) and read-out values, flat row-major over
// [rows × cols] where rows is the output dimension (bit-line columns of the
// crossbar) and cols the input dimension (word lines); param is the matrix's
// stable index within the network, mixed into the probe-choice key. Only the
// probed columns influence the fit — the rest of degraded is read but never
// enters the least squares — mirroring what a bounded probe budget can see.
func (c *Calibrator) Fit(param int, desired, degraded []float64, rows, cols int) Correction {
	if rows < 1 || cols < 1 || rows*cols != len(desired) || len(desired) != len(degraded) {
		panic(fmt.Sprintf("calib: Fit on %d/%d values for %dx%d matrix", len(desired), len(degraded), rows, cols))
	}
	probes := probeColumns(probeKey(c.key, param), cols, c.m.probes)
	corr := Correction{cols: cols, tileRows: c.m.tileRows, tileCols: c.m.tileCols}
	groups := corr.groups(rows)
	// Per-group accumulators for the least squares over (degraded → desired):
	// count, Σx, Σy, Σx², Σxy with x = degraded, y = desired.
	n := make([]float64, groups)
	sx := make([]float64, groups)
	sy := make([]float64, groups)
	sxx := make([]float64, groups)
	sxy := make([]float64, groups)
	syy := make([]float64, groups)
	// Fixed iteration order (rows outer, probed columns ascending) keeps the
	// floating-point accumulation deterministic.
	for o := 0; o < rows; o++ {
		base := o * cols
		for _, i := range probes {
			x, y := degraded[base+i], desired[base+i]
			g := corr.group(base + i)
			n[g]++
			sx[g] += x
			sy[g] += y
			sxx[g] += x * x
			sxy[g] += x * y
			syy[g] += y * y
		}
	}
	corr.gain = make([]float64, groups)
	corr.offset = make([]float64, groups)
	for g := 0; g < groups; g++ {
		corr.gain[g], corr.offset[g] = solveAffine(n[g], sx[g], sy[g], sxx[g], sxy[g], syy[g])
	}
	return corr
}

// solveAffine solves one group's least squares. Degenerate groups (fewer
// than two samples, or no spread in the degraded values) fall back to a pure
// mean-error offset; an empty group is the identity.
//
// The estimation direction matters. Regressing desired on degraded suffers
// attenuation bias: read noise in the regressor drags the slope below 1 even
// when nothing systematic is wrong, and "correcting" by that slope
// compresses every weight in the group coherently — an error amplified by
// the neuron fan-in, unlike the independent noise it replaces. solveAffine
// therefore fits the degradation itself, degraded = A·desired + B + noise
// (noise in the response, so Â is unbiased), and inverts it:
//
//	corrected = (degraded − B̂) / Â
//
// Each estimated coefficient is then shrunk toward the identity (A = 1,
// B = 0) by the positive-part rule λ = max(0, 1 − Var̂/signal²): a
// coefficient indistinguishable from its identity value at one standard
// error is dropped entirely, so under unsystematic degradation the
// correction approaches a no-op instead of injecting coherent
// estimation noise, while a genuinely affine degradation (conductance
// drift) keeps its full inverse.
func solveAffine(n, sx, sy, sxx, sxy, syy float64) (gain, offset float64) {
	if n == 0 {
		return 1, 0
	}
	meanOff := (sy - sx) / n
	if n < 2 {
		return 1, meanOff
	}
	sxxC := sxx - sx*sx/n
	syyC := syy - sy*sy/n
	sxyC := sxy - sx*sy/n
	// No spread in the desired values: the group's targets are one constant
	// (e.g. a fully pruned tile), the gain is unidentifiable, and the exact
	// flat fit maps every read to that constant. The guard is relative to
	// the data scale so equal values separated by rounding noise qualify.
	if syyC <= 1e-12*(syy+1e-300) {
		return 0, sy / n
	}
	a := sxyC / syyC
	var s2 float64
	if n > 2 {
		s2 = (sxxC - a*a*syyC) / (n - 2)
		if s2 < 0 {
			s2 = 0
		}
	}
	// shrinkK gates each coefficient at two standard errors (the variance
	// ratio compares against k·Var̂). One standard error is too permissive
	// here: a network maps hundreds of groups, so 1σ flukes are expected in
	// every fit and each one lands a coherent per-neuron error.
	const shrinkK = 4
	if da := a - 1; da != 0 {
		lam := 1 - shrinkK*s2/syyC/(da*da)
		if lam < 0 {
			lam = 0
		}
		a = 1 + da*lam
	}
	b := (sx - a*sy) / n
	if b != 0 {
		ym := sy / n
		lam := 1 - shrinkK*s2*(1/n+ym*ym/syyC)/(b*b)
		if lam < 0 {
			lam = 0
		}
		b *= lam
	}
	// A fitted gain this close to zero means the read-out barely tracks the
	// targets; inverting it would explode. Fall back to the mean-error
	// offset.
	if a < 1e-3 && a > -1e-3 {
		return 1, meanOff
	}
	gain = 1 / a
	offset = -b / a
	if !finite(gain) || !finite(offset) {
		return 1, 0
	}
	return gain, offset
}

func finite(x float64) bool { return x == x && x < 1e300 && x > -1e300 }

// Correction is a fitted affine correction over one matrix: per group g,
// corrected = gain[g]·w + offset[g]. Apply is pure; the zero value is the
// identity over zero groups and must not be applied.
type Correction struct {
	cols               int
	tileRows, tileCols int
	gain, offset       []float64
}

// groups returns the group count for a matrix with the given row count.
func (c *Correction) groups(rows int) int {
	if c.tileRows == 0 {
		return rows
	}
	return ((rows + c.tileCols - 1) / c.tileCols) * ((c.cols + c.tileRows - 1) / c.tileRows)
}

// group maps a flat row-major offset to its correction group: the output row
// for per-column models, the crossbar tile for tile-granular ones (outputs
// bound by tileCols — bit lines — and inputs by tileRows — word lines,
// matching the crossbar partition).
func (c *Correction) group(off int) int {
	o, i := off/c.cols, off%c.cols
	if c.tileRows == 0 {
		return o
	}
	inTiles := (c.cols + c.tileRows - 1) / c.tileRows
	return (o/c.tileCols)*inTiles + i/c.tileRows
}

// Apply returns the corrected value of the weight at flat row-major offset
// off whose degraded read-out is w.
func (c *Correction) Apply(off int, w float64) float64 {
	g := c.group(off)
	return c.gain[g]*w + c.offset[g]
}

// probeKey derives the per-matrix probe-choice seed from the trial key: one
// SplitMix64 finalizer over key + param so adjacent matrices decorrelate —
// the same construction package nonideal uses for per-device keys.
func probeKey(key uint64, param int) uint64 {
	z := key + 0x9e3779b97f4a7c15*uint64(param+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// probeColumns draws min(budget, cols) distinct column indices from the
// hash-derived stream, returned ascending (the accumulation order). Floyd's
// sampling algorithm draws exactly min(budget, cols) values, so the stream
// consumption is bounded and deterministic.
func probeColumns(seed uint64, cols, budget int) []int {
	if budget >= cols {
		out := make([]int, cols)
		for i := range out {
			out[i] = i
		}
		return out
	}
	r := rng.NewLocal(seed)
	seen := make(map[int]bool, budget)
	out := make([]int, 0, budget)
	for j := cols - budget; j < cols; j++ {
		t := r.Intn(j + 1)
		if seen[t] {
			t = j
		}
		seen[t] = true
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}
