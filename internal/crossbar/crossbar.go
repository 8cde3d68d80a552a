// Package crossbar implements the resistive crossbar array compute engine of
// §2.1: weight matrices are stored as conductances at the cross points of a
// device array and matrix-vector multiplication happens in the analog domain,
// with DACs driving the word lines and ADCs reading the bit lines.
//
// The engine complements the behavioural weight-noise model in package
// mapping with a structural simulation: weights are bit-sliced across K-bit
// devices in differential pairs (positive/negative columns), inputs are
// quantized by the DAC, each tile computes Σ g·v per column, and the ADC
// quantizes the accumulated currents. This is the substrate the
// crossbar_inference example runs a whole network on, demonstrating that the
// behavioural and structural models agree.
package crossbar

import (
	"fmt"
	"math"

	"swim/internal/calib"
	"swim/internal/device"
	"swim/internal/nonideal"
	"swim/internal/quant"
	"swim/internal/rng"
	"swim/internal/tensor"
)

// Config describes the crossbar fabric.
type Config struct {
	// TileRows/TileCols bound one physical array (a large weight matrix is
	// partitioned across tiles; 128×128 is a common size in the literature,
	// e.g. ISAAC).
	TileRows, TileCols int
	// DACBits quantizes word-line inputs; ADCBits quantizes column outputs.
	DACBits, ADCBits int
	// Device is the NVM device model used for the stored conductances.
	Device device.Model
}

// DefaultConfig mirrors the paper's setting (K = 4 devices) on 128×128 tiles
// with 6-bit converters.
func DefaultConfig(dev device.Model) Config {
	return Config{TileRows: 128, TileCols: 128, DACBits: 6, ADCBits: 8, Device: dev}
}

// Validate checks the fabric parameters.
func (c Config) Validate() error {
	if c.TileRows < 1 || c.TileCols < 1 {
		return fmt.Errorf("crossbar: bad tile geometry %dx%d", c.TileRows, c.TileCols)
	}
	if c.DACBits < 1 || c.ADCBits < 1 {
		return fmt.Errorf("crossbar: bad converter precision dac=%d adc=%d", c.DACBits, c.ADCBits)
	}
	return c.Device.Validate()
}

// Array is one weight matrix programmed onto crossbar tiles. It stores, for
// every logical weight, the analog conductance of each bit-slice device of
// the differential pair — exactly what a write-verify pass would measure.
type Array struct {
	cfg     Config
	out, in int
	scale   float64
	// conduct[d] holds the per-device analog values for bit-slice d, signed
	// by the differential pair (+g on the positive column, −g on the
	// negative column collapse to one signed number per device).
	conduct [][]float64
	tiles   int

	// Read-time nonideality state: when inst is set, MatVec reads eff —
	// the degraded view of conduct at readTime — instead of the programmed
	// conductances. conduct stays the ground truth so WriteVerify keeps
	// correcting the true device state (and resets its degradation).
	inst     nonideal.Instance
	readTime float64
	eff      [][]float64

	// Calibration state (SetCalibration): corrW holds the digitally
	// corrected aggregate weights (bit-slices summed with their 2^(d·K)
	// significance) the calibrated MatVec path reads instead of the
	// per-slice view; calDes/calRaw are fit scratch.
	cal            *calib.Calibrator
	corrW          []float64
	calDes, calRaw []float64
}

// NewArray programs weight matrix w ([out, in]) onto the fabric with
// unverified writes. Use WriteVerify afterwards to refine chosen weights.
// Invalid fabric parameters or a non-matrix weight tensor are reported as
// errors: NewArray is called from builder code (BuildAnalog) that may run
// inside Monte-Carlo workers, where a panic would take down the pool.
func NewArray(cfg Config, w *tensor.Tensor, r *rng.Source) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("crossbar: invalid fabric: %w", err)
	}
	if len(w.Shape) != 2 {
		return nil, fmt.Errorf("crossbar: weights must be rank 2, got shape %v", w.Shape)
	}
	out, in := w.Shape[0], w.Shape[1]
	a := &Array{
		cfg: cfg, out: out, in: in,
		scale: quant.ScaleFor(w, cfg.Device.WeightBits),
	}
	a.tiles = ((out + cfg.TileCols - 1) / cfg.TileCols) * ((in + cfg.TileRows - 1) / cfg.TileRows)
	nd := cfg.Device.NumDevices()
	a.conduct = make([][]float64, nd)
	for d := range a.conduct {
		a.conduct[d] = make([]float64, out*in)
	}
	mags, signs := make([]int, out*in), make([]float64, out*in)
	quant.QuantizeInt(mags, signs, w, a.scale, cfg.Device.WeightBits)
	for i, mag := range mags {
		for d := range a.conduct {
			a.conduct[d][i] = signs[i] * (float64(cfg.Device.SliceTarget(mag, d)) + r.Gauss(0, cfg.Device.Sigma))
		}
	}
	return a, nil
}

// SetNonideal installs a read-time nonideality instance: every subsequent
// MatVec observes the degraded conductances at readTime seconds after
// programming. The device index passed to the instance is weight-major
// within this array (arrayWeight·NumDevices + slice) — array-local, not
// network-global, so an instance shared across the arrays of a multi-layer
// network draws per-device randomness independently per array rather than
// reproducing the mapping layer's global indexing. A nil inst restores
// ideal reads.
func (a *Array) SetNonideal(inst nonideal.Instance, readTime float64) {
	a.inst, a.readTime = nonideal.At(inst, readTime), readTime
	if inst == nil {
		a.eff = nil
		return
	}
	a.eff = make([][]float64, len(a.conduct))
	for d := range a.conduct {
		a.eff[d] = make([]float64, len(a.conduct[d]))
		for i := range a.conduct[d] {
			a.refreshEff(d, i)
		}
	}
	a.recalibrate()
}

// SetCalibration installs a per-trial calibration instance (package calib):
// every subsequent MatVec reads digitally corrected aggregate weights — the
// calibrator's affine fit of the degraded read-out against the programmed
// (write-time ground truth) conductances, the pairs a hardware probe read at
// t = 0 versus the current read time reveals. The correction refits after
// SetNonideal and after every WriteVerify, so it always reflects the current
// device state. A nil c restores raw reads.
func (a *Array) SetCalibration(c *calib.Calibrator) {
	a.cal = c
	if c == nil {
		a.corrW = nil
		return
	}
	a.recalibrate()
}

// recalibrate refits the correction from the current read view and rebuilds
// the corrected aggregate weights. A no-op without SetCalibration.
func (a *Array) recalibrate() {
	if a.cal == nil {
		return
	}
	n := a.out * a.in
	if a.corrW == nil {
		a.corrW = make([]float64, n)
		a.calDes = make([]float64, n)
		a.calRaw = make([]float64, n)
	}
	read := a.conduct
	if a.eff != nil {
		read = a.eff
	}
	for i := 0; i < n; i++ {
		a.calDes[i], a.calRaw[i] = 0, 0
	}
	for d := range a.conduct {
		weight := math.Pow(2, float64(d*a.cfg.Device.DeviceBits))
		for i, g := range a.conduct[d] {
			a.calDes[i] += weight * g
		}
		for i, g := range read[d] {
			a.calRaw[i] += weight * g
		}
	}
	corr := a.cal.Fit(0, a.calDes, a.calRaw, a.out, a.in)
	for i, v := range a.calRaw {
		a.corrW[i] = corr.Apply(i, v)
	}
}

// refreshEff recomputes the degraded view of one device from its programmed
// conductance.
func (a *Array) refreshEff(d, i int) {
	g, sign := a.conduct[d][i], 1.0
	if g < 0 {
		sign, g = -1, -g
	}
	a.eff[d][i] = sign * a.inst.Apply(i*len(a.conduct)+d, g, a.readTime)
}

// Tiles returns how many physical tiles the matrix occupies.
func (a *Array) Tiles() int { return a.tiles }

// Shape returns (out, in).
func (a *Array) Shape() (int, int) { return a.out, a.in }

// WriteVerify re-programs logical weight (row, col) with the iterative
// write-verify loop and returns the write cycles spent. The desired level of
// each bit-slice is re-derived from the stored value by rounding: with the
// default σ the write noise is far below half a level, so the recovery is
// exact with overwhelming probability.
func (a *Array) WriteVerify(row, col int, r *rng.Source) int {
	i := row*a.in + col
	total := 0
	single := a.cfg.Device
	single.WeightBits = single.DeviceBits // verify one bit-slice at a time
	for d := range a.conduct {
		sign := 1.0
		if a.conduct[d][i] < 0 {
			sign = -1
		}
		target := math.Round(math.Abs(a.conduct[d][i]))
		res, cycles := single.WriteVerify(int(target), r)
		a.conduct[d][i] = sign * (target + res)
		if a.eff != nil {
			a.refreshEff(d, i) // re-degrade from the new programmed state
		}
		total += cycles
	}
	a.recalibrate()
	return total
}

// MatVec computes y = W·x in the analog domain: the DAC quantizes x, every
// device contributes g·v to its column current, and the ADC quantizes the
// result. Reconstruction weighs slice d by 2^(d·K) and rescales by the
// quantization step.
func (a *Array) MatVec(x []float64) []float64 {
	y := make([]float64, a.out)
	a.MatVecInto(y, x, make([]float64, a.in))
	return y
}

// MatVecInto is the allocation-free MatVec: y receives the result (length
// out) and xq is caller-provided scratch for the DAC-quantized input (length
// in). The arithmetic is identical to MatVec.
func (a *Array) MatVecInto(y, x, xq []float64) {
	if len(x) != a.in {
		panic(fmt.Sprintf("crossbar: input length %d, want %d", len(x), a.in))
	}
	if len(y) != a.out || len(xq) != a.in {
		panic(fmt.Sprintf("crossbar: MatVecInto buffers %d/%d, want %d/%d", len(y), len(xq), a.out, a.in))
	}
	a.dacInto(xq, x)
	for o := range y {
		y[o] = 0
	}
	if a.corrW != nil {
		// Calibrated read: the digital correction operates on the ADC-side
		// aggregate, so the calibrated path sums the corrected weights in one
		// pass instead of per bit-slice.
		for o := 0; o < a.out; o++ {
			row := a.corrW[o*a.in : (o+1)*a.in]
			s := 0.0
			for i, v := range xq {
				s += row[i] * v
			}
			y[o] = s * a.scale
		}
		a.adc(y)
		return
	}
	slices := a.conduct
	if a.eff != nil {
		slices = a.eff
	}
	for d := range slices {
		weight := math.Pow(2, float64(d*a.cfg.Device.DeviceBits))
		cd := slices[d]
		for o := 0; o < a.out; o++ {
			row := cd[o*a.in : (o+1)*a.in]
			s := 0.0
			for i, v := range xq {
				s += row[i] * v
			}
			y[o] += weight * s
		}
	}
	for o := range y {
		y[o] *= a.scale
	}
	a.adc(y)
}

// dacInto quantizes the input vector to DACBits uniform levels over its
// range, writing into dst.
func (a *Array) dacInto(dst, x []float64) {
	maxAbs := 0.0
	for _, v := range x {
		if m := math.Abs(v); m > maxAbs {
			maxAbs = m
		}
	}
	if maxAbs == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	levels := float64(int(1)<<a.cfg.DACBits - 1)
	step := maxAbs / levels
	for i, v := range x {
		dst[i] = math.Round(v/step) * step
	}
}

// adc quantizes the output currents to ADCBits uniform levels over range.
func (a *Array) adc(y []float64) []float64 {
	maxAbs := 0.0
	for _, v := range y {
		if m := math.Abs(v); m > maxAbs {
			maxAbs = m
		}
	}
	if maxAbs == 0 {
		return y
	}
	levels := float64(int(1)<<a.cfg.ADCBits - 1)
	step := maxAbs / levels
	for i, v := range y {
		y[i] = math.Round(v/step) * step
	}
	return y
}
