package nonideal

import (
	"fmt"
	"math"

	"swim/internal/device"
	"swim/internal/rng"
	"swim/internal/spec"
)

// Drift is the power-law conductance decay ubiquitous in phase-change and
// filamentary memories: a device read t seconds after programming returns
//
//	g(t) = g0 · (t / t0)^(−ν)       for t > t0, else g0
//
// with drift coefficient ν drawn once per device per trial from
// N(Nu, NuStd²) clamped at 0. Registry name "drift"; parameters nu, nustd,
// t0 (seconds).
type Drift struct {
	// Nu is the mean drift coefficient (typical PCM values are 0.005–0.1).
	Nu float64
	// NuStd is the per-device spread of the drift coefficient.
	NuStd float64
	// T0 is the reference time the power law is anchored at, in seconds.
	T0 float64
}

// Name implements Nonideality.
func (d Drift) Name() string { return "drift" }

// String implements Nonideality.
func (d Drift) String() string {
	return fmt.Sprintf("drift:nu=%s,nustd=%s,t0=%s", spec.FormatFloat(d.Nu), spec.FormatFloat(d.NuStd), spec.FormatFloat(d.T0))
}

// NewTrial implements Nonideality: one key draw, per-device ν by hashing.
func (d Drift) NewTrial(_ device.Model, r *rng.Source) Instance {
	return driftInstance{cfg: d, key: r.Uint64()}
}

type driftInstance struct {
	cfg Drift
	key uint64
	// When bound, logX = log(readAt/T0), taken once by bindAt for a finite
	// readAt/T0 above 1.
	bound        bool
	readAt, logX float64
}

// bindAt returns the instance with read time t bound (see At).
func (in driftInstance) bindAt(t float64) driftInstance {
	in.bound = false
	if x := t / in.cfg.T0; t > in.cfg.T0 && x != 1 && !math.IsInf(x, 0) {
		in.bound, in.readAt, in.logX = true, t, math.Log(x)
	}
	return in
}

func (in driftInstance) Apply(dev int, g float64, t float64) float64 {
	if t <= in.cfg.T0 || g == 0 {
		return g
	}
	s := rng.NewLocal(devKey(in.key, dev))
	nu := in.cfg.Nu + in.cfg.NuStd*s.Norm()
	if nu <= 0 {
		return g
	}
	if nu < 0.5 && in.bound && t == in.readAt {
		// math.Pow(x, −ν)'s own branch for 0 < ν < ½ and finite x ≠ 1: no
		// integer part, no squaring loop, and Ldexp(a, 0) == a. Only the
		// Log(x) is taken once per read time instead of once per device.
		return g * (1 / math.Exp(nu*in.logX))
	}
	return g * math.Pow(t/in.cfg.T0, -nu)
}

// Retention models charge/filament relaxation toward the reset state as an
// exponential decay: g(t) = g0 · exp(−t/τ), with the time constant τ drawn
// once per device per trial from a lognormal around Tau (multiplicative
// spread exp(N(0, Spread²))). Registry name "retention"; parameters tau
// (seconds), spread.
type Retention struct {
	// Tau is the median retention time constant in seconds.
	Tau float64
	// Spread is the lognormal σ of the per-device time constant.
	Spread float64
}

// Name implements Nonideality.
func (d Retention) Name() string { return "retention" }

// String implements Nonideality.
func (d Retention) String() string {
	return fmt.Sprintf("retention:tau=%s,spread=%s", spec.FormatFloat(d.Tau), spec.FormatFloat(d.Spread))
}

// NewTrial implements Nonideality.
func (d Retention) NewTrial(_ device.Model, r *rng.Source) Instance {
	return retentionInstance{cfg: d, key: r.Uint64()}
}

type retentionInstance struct {
	cfg Retention
	key uint64
}

func (in retentionInstance) Apply(dev int, g float64, t float64) float64 {
	if t <= 0 || g == 0 {
		return g
	}
	s := rng.NewLocal(devKey(in.key, dev))
	tau := in.cfg.Tau * math.Exp(in.cfg.Spread*s.Norm())
	return g * math.Exp(-t/tau)
}

// StuckAt injects hard faults: each device is independently stuck with
// probability P, at full scale (its bit-slice's maximum level) with
// probability High, otherwise at zero — whatever was programmed. Faults are
// drawn once per device per trial and are time-invariant. Registry name
// "stuckat"; parameters p, high.
type StuckAt struct {
	// P is the per-device fault probability.
	P float64
	// High is the fraction of faults stuck at full scale (the rest stick
	// at zero).
	High float64
}

// Name implements Nonideality.
func (d StuckAt) Name() string { return "stuckat" }

// String implements Nonideality.
func (d StuckAt) String() string {
	return fmt.Sprintf("stuckat:p=%s,high=%s", spec.FormatFloat(d.P), spec.FormatFloat(d.High))
}

// NewTrial implements Nonideality.
func (d StuckAt) NewTrial(m device.Model, r *rng.Source) Instance {
	return stuckAtInstance{cfg: d, m: m, key: r.Uint64()}
}

type stuckAtInstance struct {
	cfg StuckAt
	m   device.Model
	key uint64
}

func (in stuckAtInstance) Apply(dev int, g float64, _ float64) float64 {
	s := rng.NewLocal(devKey(in.key, dev))
	if s.Float64() >= in.cfg.P {
		return g
	}
	if s.Float64() < in.cfg.High {
		return float64(in.m.DeviceLevels(sliceOf(in.m, dev)))
	}
	return 0
}

// D2D is device-to-device variation of the programming noise: each device's
// σ (device.Model.Sigma) is rescaled once per trial by |1 + N(0, Spread²)|
// and the device carries a static read offset drawn from the rescaled noise,
// N(0, (σ·scale)²). Devices that happened to be fabricated noisy therefore
// stay noisy for the whole trial — unlike the i.i.d. per-write noise of
// Eq. 15. Registry name "d2d"; parameter spread.
type D2D struct {
	// Spread is the relative spread of the per-device σ scaling.
	Spread float64
}

// Name implements Nonideality.
func (d D2D) Name() string { return "d2d" }

// String implements Nonideality.
func (d D2D) String() string { return fmt.Sprintf("d2d:spread=%s", spec.FormatFloat(d.Spread)) }

// NewTrial implements Nonideality.
func (d D2D) NewTrial(m device.Model, r *rng.Source) Instance {
	return d2dInstance{cfg: d, sigma: m.Sigma, key: r.Uint64()}
}

type d2dInstance struct {
	cfg   D2D
	sigma float64
	key   uint64
}

func (in d2dInstance) Apply(dev int, g float64, _ float64) float64 {
	s := rng.NewLocal(devKey(in.key, dev))
	scale := math.Abs(1 + in.cfg.Spread*s.Norm())
	// Clamp at the reset state: conductances are magnitudes (the Instance
	// contract) and a physical device cannot read below zero, so an offset
	// that would push a near-reset device negative saturates instead.
	return math.Max(0, g+in.sigma*scale*s.Norm())
}

// QuantLevels snaps the programmed analog conductance to 2^Bits uniform
// levels over the device's full scale, clamping to [0, full scale] — the
// finite-resolution programming of multi-level cells. Deterministic: no
// per-trial randomness. Registry name "quantlevels"; parameter bits.
type QuantLevels struct {
	// Bits is the stored resolution: conductance snaps to 2^Bits levels.
	Bits int
}

// Name implements Nonideality.
func (d QuantLevels) Name() string { return "quantlevels" }

// String implements Nonideality.
func (d QuantLevels) String() string { return fmt.Sprintf("quantlevels:bits=%d", d.Bits) }

// NewTrial implements Nonideality. It still consumes one key draw so that
// swapping models in a stack never shifts a sibling model's stream.
func (d QuantLevels) NewTrial(m device.Model, r *rng.Source) Instance {
	r.Uint64()
	return quantInstance{cfg: d, m: m}
}

type quantInstance struct {
	cfg QuantLevels
	m   device.Model
}

func (in quantInstance) Apply(dev int, g float64, _ float64) float64 {
	full := float64(in.m.DeviceLevels(sliceOf(in.m, dev)))
	if full <= 0 {
		return 0
	}
	steps := float64(int(1)<<in.cfg.Bits - 1)
	q := math.Round(g/full*steps) / steps * full
	return math.Min(math.Max(q, 0), full)
}
