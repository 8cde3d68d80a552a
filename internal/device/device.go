// Package device models the non-volatile memory devices an nvCiM crossbar is
// built from, following §4.1 of the SWIM paper.
//
// An M-bit weight magnitude W_des = Σ m_i·2^i (Eq. 14) is split across
// ⌈M/K⌉ devices of K bits each; device i stores the bit group starting at
// bit i·K, and its programmed conductance is a Gaussian around the desired
// value with a value-independent standard deviation σ (Eq. 15, following
// Feinberg et al.). The weight-level programming error without verification
// is therefore
//
//	W_map − W_des ~ N(0, σ²·Σ_i 4^{i·K})     (Eq. 16)
//
// in integer units of the weight's LSB.
//
// Write-verify follows the two-step scheme of Shim et al. (the paper's
// ref. [8], from which it takes its two anchor statistics): a device is first
// ramped from its reset state toward the target with coarse incremental
// pulses, then re-programmed with fine pulses, reading back after each, until
// the conductance is within the acceptance tolerance (0.06 device levels).
// With the default parameters this reproduces the paper's anchors — roughly
// ten write cycles per weight on average and a post-verify residual spread of
// σ ≈ 0.03 — see cmd/swim-calibrate and calibrate tests.
//
// Simulation cost. Every write, coarse pulse and fine pulse is its own
// Gaussian draw from the trial's stream, and the programming loops cost
// little beyond those draws: significances 2^(i·K) are exact running
// products, SliceTarget slices a magnitude by shift and mask without
// allocating, and the fine phase runs through rng.GaussWithin, which
// decides most rejected pulses without computing them. The results are
// bit-identical to one Gauss per pulse (device_test.go keeps that loop as
// its oracle).
package device

import (
	"fmt"
	"math"

	"swim/internal/rng"
)

// Model describes one device technology + programming policy.
type Model struct {
	// WeightBits is M, bits per weight magnitude.
	WeightBits int
	// DeviceBits is K, bits stored per device (paper uses K = 4).
	DeviceBits int
	// Sigma is the programming noise std per device in device-level units,
	// value-independent per Feinberg et al. It governs both the
	// unverified parallel write (Eq. 15) and each fine write-verify pulse.
	Sigma float64
	// Tolerance is the write-verify acceptance margin in device-level units
	// (paper: 0.06).
	Tolerance float64
	// CoarseStep is the mean conductance increment of one coarse ramp pulse,
	// in device levels.
	CoarseStep float64
	// CoarseJitter is the relative (multiplicative) noise of a coarse pulse.
	CoarseJitter float64
	// MaxPulses caps the total pulses per device (safety bound; the
	// defaults converge far earlier with overwhelming probability).
	MaxPulses int
	// IncJitter and IncNoise model a small *incremental* (unverified)
	// update pulse, as used by on-chip in-situ training (Yao et al., the
	// paper's ref. [13]): a requested conductance change Δ lands as
	// Δ·(1 + N(0, IncJitter)) + N(0, IncNoise). Small pulses have small
	// absolute variability, unlike a full re-program whose error is σ.
	IncJitter float64
	IncNoise  float64
}

// Default returns the calibrated model used throughout the reproduction:
// K = 4 (paper §4.1), 0.06 acceptance tolerance, and a coarse step chosen so
// that full write-verify averages ≈10 cycles per weight.
func Default(weightBits int, sigma float64) Model {
	return Model{
		WeightBits:   weightBits,
		DeviceBits:   4,
		Sigma:        sigma,
		Tolerance:    0.06,
		CoarseStep:   0.75,
		CoarseJitter: 0.2,
		MaxPulses:    500,
		IncJitter:    0.2,
		IncNoise:     0.05,
	}
}

// Increment simulates one unverified incremental update pulse requesting a
// conductance change of delta (weight-LSB units) and returns the change that
// actually lands. One such pulse is one write cycle in the paper's in-situ
// cost accounting.
func (m Model) Increment(delta float64, r *rng.Source) float64 {
	return delta*(1+r.Gauss(0, m.IncJitter)) + r.Gauss(0, m.IncNoise)
}

// maxBits bounds WeightBits and DeviceBits: quant.Config's weight-precision
// limit, and small enough that the 2^M-entry cycle table (CycleTable) and
// every shift by M or K stay in range.
const maxBits = 16

// Validate checks the model parameters.
func (m Model) Validate() error {
	switch {
	case m.WeightBits < 1 || m.WeightBits > maxBits:
		return fmt.Errorf("device: weight bits %d out of range [1,%d]", m.WeightBits, maxBits)
	case m.DeviceBits < 1 || m.DeviceBits > maxBits:
		return fmt.Errorf("device: device bits %d out of range [1,%d]", m.DeviceBits, maxBits)
	case m.Sigma < 0:
		return fmt.Errorf("device: negative sigma %v", m.Sigma)
	case math.IsNaN(m.Sigma) || math.IsInf(m.Sigma, 0):
		return fmt.Errorf("device: non-finite sigma %v", m.Sigma)
	case m.Tolerance <= 0:
		return fmt.Errorf("device: non-positive tolerance %v", m.Tolerance)
	case m.CoarseStep <= 0:
		return fmt.Errorf("device: non-positive coarse step %v", m.CoarseStep)
	case m.MaxPulses < 1:
		return fmt.Errorf("device: max pulses %d < 1", m.MaxPulses)
	}
	return nil
}

// NumDevices returns ⌈M/K⌉, the devices holding one weight magnitude.
func (m Model) NumDevices() int {
	return (m.WeightBits + m.DeviceBits - 1) / m.DeviceBits
}

// DeviceLevels returns the level count of device i (the top device of a
// non-multiple M holds fewer bits). It is the full-scale conductance of that
// bit-slice in device-level units — the range nonideality models clamp to.
func (m Model) DeviceLevels(i int) int {
	bits := m.DeviceBits
	if rem := m.WeightBits - i*m.DeviceBits; rem < bits {
		bits = rem
	}
	return int(1)<<bits - 1
}

// SliceTarget returns device i's share of an integer weight magnitude, the
// bit group [i·K, (i+1)·K) of Eq. 14. It is the one bit-slicing rule the
// device, mapping and crossbar layers share.
func (m Model) SliceTarget(mag, i int) int {
	return (mag >> (i * m.DeviceBits)) & (int(1)<<m.DeviceBits - 1)
}

// devices returns NumDevices, read off perDev's length when the caller
// passes one: the per-weight loops then skip NumDevices' integer division.
func (m Model) devices(perDev []float64) int {
	if perDev != nil {
		return len(perDev)
	}
	return m.NumDevices()
}

// sliceScale returns 2^K, the significance step between adjacent devices:
// device i's significance 2^(i·K) is the product of i steps, exact in
// float64 for K < 64 (Validate bounds K by maxBits).
func (m Model) sliceScale() float64 {
	return float64(uint64(1) << uint(m.DeviceBits))
}

// NoiseStd returns the std of the weight-level programming error without
// verification, in weight-LSB units: σ·sqrt(Σ_i 4^{i·K}) (Eq. 16).
func (m Model) NoiseStd() float64 {
	sum := 0.0
	for i := 0; i < m.NumDevices(); i++ {
		sum += math.Pow(4, float64(i*m.DeviceBits))
	}
	return m.Sigma * math.Sqrt(sum)
}

// ProgramNoVerify simulates programming one weight without verification
// (the massively parallel initial write) and returns the signed error in
// weight-LSB units. Per Eq. 15 the error is value-independent, so no target
// is needed.
func (m Model) ProgramNoVerify(r *rng.Source) float64 {
	return m.ProgramNoVerifyDevices(r, nil)
}

// ProgramNoVerifyDevices is ProgramNoVerify exposing the constituent
// per-device errors: when perDev is non-nil (length NumDevices) it receives
// device i's error in device-level units. The stream consumption and the
// returned aggregate are bit-identical to ProgramNoVerify — the per-device
// view exists so the mapping layer can track bit-slice conductances for
// read-time nonideality models (package nonideal).
func (m Model) ProgramNoVerifyDevices(r *rng.Source, perDev []float64) float64 {
	e, sig, step := 0.0, 1.0, m.sliceScale()
	for i, nd := 0, m.devices(perDev); i < nd; i++ {
		g := r.Gauss(0, m.Sigma)
		if perDev != nil {
			perDev[i] = g
		}
		e += sig * g
		sig *= step // 2^(i·K), exact
	}
	return e
}

// WriteVerify simulates write-verifying one weight with integer magnitude
// mag: every constituent device ramps from reset toward its bit-group target
// and fine-tunes until within tolerance. It returns the residual weight
// error in weight-LSB units and the total write cycles spent across the
// weight's devices (the quantity NWC normalizes). Cycle counts are
// value-dependent — "some may not need rewrite at all; while others need a
// lot" (§4.1) — zero targets cost nothing because a reset device already
// stores zero.
func (m Model) WriteVerify(mag int, r *rng.Source) (residual float64, cycles int) {
	return m.WriteVerifyDevices(mag, r, nil)
}

// WriteVerifyDevices is WriteVerify exposing the constituent per-device
// residuals: when perDev is non-nil (length NumDevices) it receives device
// i's post-verify residual in device-level units. Stream consumption and the
// aggregate are bit-identical to WriteVerify; the per-device view feeds the
// mapping layer's conductance tracking for read-time nonidealities.
func (m Model) WriteVerifyDevices(mag int, r *rng.Source, perDev []float64) (residual float64, cycles int) {
	sig, step := 1.0, m.sliceScale()
	for i, nd := 0, m.devices(perDev); i < nd; i++ {
		e, c := m.writeVerifyDevice(float64(m.SliceTarget(mag, i)), r)
		if perDev != nil {
			perDev[i] = e
		}
		residual += sig * e
		cycles += c
		sig *= step // 2^(i·K), exact
	}
	return residual, cycles
}

// writeVerifyDevice runs the two-phase loop for one device and returns its
// residual error (device-level units) and cycle count.
func (m Model) writeVerifyDevice(target float64, r *rng.Source) (float64, int) {
	cycles := 0
	v := 0.0 // reset state
	// Coarse ramp: incremental set pulses until within one step of target.
	for target-v > m.CoarseStep && cycles < m.MaxPulses {
		v += m.CoarseStep * (1 + r.Gauss(0, m.CoarseJitter))
		cycles++
	}
	if target == 0 && cycles == 0 {
		return 0, 0
	}
	// Fine phase: re-program around the target (error N(0, σ)), read back,
	// repeat until within tolerance — at least once, and within the pulse
	// cap the coarse ramp left.
	e, fine := r.GaussWithin(m.Sigma, m.Tolerance, m.MaxPulses-cycles)
	return e, cycles + fine
}

// CostModel converts write-cycle counts into wall-clock programming time and
// energy, the units behind the paper's motivation ("programming even a
// ResNet-18 for CIFAR-10 to an nvCiM platform can take more than one
// week"). Defaults follow the RRAM programming literature: ~100 ns set/reset
// pulses at ~10 pJ each, with a read (verify) costing ~10 ns — reads are
// "much shorter ... than write" (§3.1), which is also why Algorithm 1's
// accuracy evaluations are treated as free.
type CostModel struct {
	// PulseTime is the duration of one write pulse.
	PulseTimeNS float64
	// VerifyTimeNS is the read-back per verify iteration.
	VerifyTimeNS float64
	// PulseEnergyPJ is the energy of one write pulse.
	PulseEnergyPJ float64
	// Parallelism is how many devices program concurrently (write-verify is
	// per-device sequential within a column driver; 1 models the paper's
	// fully serial accounting).
	Parallelism int
}

// DefaultCost returns the literature-typical cost model.
func DefaultCost() CostModel {
	return CostModel{PulseTimeNS: 100, VerifyTimeNS: 10, PulseEnergyPJ: 10, Parallelism: 1}
}

// TimeSeconds converts a write-cycle count into seconds (each cycle is one
// pulse plus one verify read).
func (c CostModel) TimeSeconds(cycles float64) float64 {
	p := float64(c.Parallelism)
	if p < 1 {
		p = 1
	}
	return cycles * (c.PulseTimeNS + c.VerifyTimeNS) * 1e-9 / p
}

// EnergyJoules converts a write-cycle count into Joules.
func (c CostModel) EnergyJoules(cycles float64) float64 {
	return cycles * c.PulseEnergyPJ * 1e-12
}

// Stats summarizes Monte-Carlo statistics of the write-verify loop.
type Stats struct {
	MeanCycles  float64
	ResidualStd float64
	MaxCycles   int
	Samples     int
}

// Calibrate measures write-verify behaviour over n weights with magnitudes
// drawn uniformly over the representable range. cmd/swim-calibrate prints
// this against the paper's anchors (≈10 cycles, σ_post ≈ 0.03).
func (m Model) Calibrate(n int, r *rng.Source) Stats {
	levels := int(1)<<m.WeightBits - 1
	var s Stats
	s.Samples = n
	var sumCycles, sumSq float64
	for i := 0; i < n; i++ {
		res, c := m.WriteVerify(r.Intn(levels+1), r)
		sumCycles += float64(c)
		if c > s.MaxCycles {
			s.MaxCycles = c
		}
		sumSq += res * res
	}
	s.MeanCycles = sumCycles / float64(n)
	s.ResidualStd = math.Sqrt(sumSq / float64(n))
	return s
}

// CycleTable returns the Monte-Carlo expected write-verify cycle count for
// every representable magnitude (index = magnitude). The mapping layer sums
// this table over a network's weights to get the NWC denominator — the cost
// of write-verifying all the weights — without simulating the full pass in
// every trial.
func (m Model) CycleTable(trialsPerLevel int, r *rng.Source) []float64 {
	levels := int(1)<<m.WeightBits - 1
	table := make([]float64, levels+1)
	for mag := 0; mag <= levels; mag++ {
		total := 0
		for t := 0; t < trialsPerLevel; t++ {
			_, c := m.WriteVerify(mag, r)
			total += c
		}
		table[mag] = float64(total) / float64(trialsPerLevel)
	}
	return table
}

// CalibrateGaussian measures write-verify behaviour for magnitudes following
// the |N(0, 1)| weight distribution typical of trained networks (quantized to
// the full-scale grid), which weights the cycle count the way a real mapping
// pass would.
func (m Model) CalibrateGaussian(n int, r *rng.Source) Stats {
	levels := float64(int(1)<<m.WeightBits - 1)
	var s Stats
	s.Samples = n
	var sumCycles, sumSq float64
	for i := 0; i < n; i++ {
		// Trained weights: |w| ~ |N(0, 1)| clipped at 3σ = full scale.
		mag := int(math.Round(math.Min(math.Abs(r.Gauss(0, 1)), 3) / 3 * levels))
		res, c := m.WriteVerify(mag, r)
		sumCycles += float64(c)
		if c > s.MaxCycles {
			s.MaxCycles = c
		}
		sumSq += res * res
	}
	s.MeanCycles = sumCycles / float64(n)
	s.ResidualStd = math.Sqrt(sumSq / float64(n))
	return s
}
