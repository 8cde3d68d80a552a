// Package mapping manages the state of a DNN programmed onto an nvCiM
// platform: the desired (quantized) weight values, the values actually
// sitting on the devices after noisy programming, which weights have been
// write-verified, and the running write-cycle bill that the paper's NWC
// (normalized write cycles) metric is computed from.
//
// One Mapped instance is one Monte-Carlo trial: it owns a clone of the
// trained master network whose mapped weights are perturbed per the device
// model, and re-programs individual weights on demand (write-verify for the
// selective schemes, noisy unverified writes for in-situ training).
package mapping

import (
	"fmt"
	"math"

	"swim/internal/calib"
	"swim/internal/device"
	"swim/internal/eval"
	"swim/internal/kernel"
	"swim/internal/nn"
	"swim/internal/nonideal"
	"swim/internal/quant"
	"swim/internal/rng"
	"swim/internal/tensor"
)

// Mapped is a network programmed onto simulated NVM devices.
type Mapped struct {
	// Net is the working clone whose mapped parameters hold programmed
	// (noisy) values; evaluating it measures on-device accuracy.
	Net *nn.Network
	// Model is the device/programming model in force.
	Model device.Model

	loc    *Locator  // O(1) flat index -> (param, offset) resolution
	scales []float64 // per-param quantization step
	total  int

	desired []float64 // flat desired float weights (on the quantized grid)
	mags    []int     // flat integer magnitudes
	signs   []float64 // flat signs (+1/−1)
	// Verified marks weights that have been write-verified in this trial.
	Verified []bool

	// CyclesUsed accumulates write cycles spent by write-verify and in-situ
	// writes. The initial parallel programming pass is free (paper: NWC = 0
	// means "no write-verify or in-situ training").
	CyclesUsed float64

	cycleTable []float64 // expected WV cycles per magnitude

	// Per-device conductance tracking for read-time nonidealities: cond
	// holds every bit-slice device's programmed conductance (signed by the
	// differential pair, device-level units), laid out weight-major
	// (cond[i*nd+d]). It is maintained by every programming operation so
	// that SetNonideal can derive the degraded read-time weights from the
	// true time-0 device state; the mapped weight in Net stays the exact
	// aggregate value the legacy (nonideality-free) path produces.
	cond       []float64
	devScratch []float64 // NumDevices scratch for per-device errors
	pow2       []float64 // 2^(d·K) significance per bit-slice
	inst       nonideal.Instance
	readTime   float64
	// dirty lists the weights reprogrammed since the last SyncRead;
	// needFull forces the next sync to recompute every weight (scenario
	// installed or whole-network reprogram). Because Instance.Apply is
	// pure in (device, conductance, time), a weight whose conductances
	// did not change re-syncs to the identical value, so incremental
	// syncing is bit-identical to a full recompute at a fraction of the
	// cost — Algorithm 1 re-measures accuracy after every granule.
	dirty    []int
	needFull bool

	// Calibration state (SetCalibration): when cal is set, SyncRead lands
	// the raw (uncorrected) read-out of every weight in rawRead instead of
	// the network, refits one correction per mapped parameter from the
	// calibrator's probe budget, and writes the corrected values into the
	// network — the digital gain/offset stage sitting after the analog
	// nonideality and before evaluation.
	cal     *calib.Calibrator
	rawRead []float64
	corr    []calib.Correction

	// Compiled-evaluation state: Accuracy measures through an eval.Binding
	// (zero steady-state allocations; see package eval) of an evaluator
	// compiled lazily on first use, so each measurement re-runs only the
	// layers whose state changed since the last. evalArena optionally shares
	// one arena — scratch and the binding's checkpoints — across the trials
	// a Monte-Carlo worker runs.
	ev        *eval.Evaluator
	bound     *eval.Binding
	evalArena *tensor.Arena
	evalKern  kernel.Backend
}

// New quantizes the master network's mapped weights onto the device grid,
// programs every weight with unverified noise (Eq. 16), and returns the
// trial state. The master network is not modified.
//
// An invalid device model or a network with no mapped parameters is reported
// as an error rather than a panic: New is the API boundary every Monte-Carlo
// worker crosses, and a panic there would kill the whole trial pool instead
// of surfacing through the experiment's error path.
func New(master *nn.Network, m device.Model, cycleTable []float64, r *rng.Source) (*Mapped, error) {
	if master == nil {
		return nil, fmt.Errorf("mapping: nil master network")
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("mapping: invalid device model: %w", err)
	}
	net := master.Clone()
	params := net.MappedParams()
	if len(params) == 0 {
		return nil, fmt.Errorf("mapping: network %q has no mapped parameters", master.Name)
	}
	mp := &Mapped{Net: net, Model: m, cycleTable: cycleTable}
	for _, p := range params {
		scale := quant.ScaleFor(p.Data, m.WeightBits)
		mp.scales = append(mp.scales, scale)
		mags, signs := quant.QuantizeInt(p.Data, scale, m.WeightBits)
		des := quant.Dequantize(mags, signs, scale)
		mp.mags = append(mp.mags, mags...)
		mp.signs = append(mp.signs, signs...)
		mp.desired = append(mp.desired, des...)
		mp.total += p.Size()
	}
	mp.loc = NewLocator(params)
	mp.Verified = make([]bool, mp.total)
	nd := m.NumDevices()
	mp.cond = make([]float64, mp.total*nd)
	mp.devScratch = make([]float64, nd)
	mp.pow2 = make([]float64, nd)
	for d := range mp.pow2 {
		mp.pow2[d] = math.Pow(2, float64(d*m.DeviceBits))
	}
	if mp.cycleTable == nil {
		mp.cycleTable = m.CycleTable(200, r.Split())
	}
	mp.ProgramAll(r)
	return mp, nil
}

// TotalWeights returns |W0|, the number of mapped scalar weights.
func (mp *Mapped) TotalWeights() int { return mp.total }

// locate maps a flat weight index to its parameter and in-parameter offset.
func (mp *Mapped) locate(i int) (*nn.Param, int, float64) {
	pi, off := mp.loc.Locate(i)
	return mp.loc.params[pi], off, mp.scales[pi]
}

// Desired returns the flat desired (quantized) weight values.
func (mp *Mapped) Desired() []float64 { return mp.desired }

// ProgramAll performs the initial massively parallel unverified programming
// pass: every weight lands at desired + noise per Eq. 16. It costs zero NWC
// and resets all verification marks.
func (mp *Mapped) ProgramAll(r *rng.Source) {
	for i := 0; i < mp.total; i++ {
		p, off, scale := mp.locate(i)
		e := mp.Model.ProgramNoVerifyDevices(r, mp.devScratch)
		p.Data.Data[off] = mp.desired[i] + mp.signs[i]*e*scale
		mp.Verified[i] = false
		mp.trackCond(i, 0)
	}
	mp.needFull = mp.tracking()
}

// tracking reports whether read-out must be recomputed from the tracked
// conductances — because a nonideality degrades it, a calibration corrects
// it, or both.
func (mp *Mapped) tracking() bool { return mp.inst != nil || mp.cal != nil }

// trackCond records weight i's per-device conductances after a programming
// operation: bit-slice target plus the per-device error just written to
// devScratch (plus extra, the spatial-field component, added to every
// slice), signed by the weight's differential pair.
func (mp *Mapped) trackCond(i int, extra float64) {
	nd := len(mp.devScratch)
	mag, sign := mp.mags[i], mp.signs[i]
	mask := int(1)<<mp.Model.DeviceBits - 1
	for d := 0; d < nd; d++ {
		target := float64((mag >> (d * mp.Model.DeviceBits)) & mask)
		mp.cond[i*nd+d] = sign * (target + mp.devScratch[d] + extra)
	}
}

// ProgramAllSpatial is ProgramAll with an additional per-chip spatial
// variation field (the §2.1 extension): every device's error gains the field
// value at its crossbar coordinates, scaled through each constituent
// device's significance like the temporal term. Write-verify later removes
// both components because it corrects the read-back error, whatever its
// source.
func (mp *Mapped) ProgramAllSpatial(r *rng.Source, field *device.SpatialField) {
	amp := 0.0
	for d := 0; d < mp.Model.NumDevices(); d++ {
		amp += math.Pow(2, float64(d*mp.Model.DeviceBits))
	}
	for i := 0; i < mp.total; i++ {
		p, off, scale := mp.locate(i)
		f := field.AtFlat(i)
		e := mp.Model.ProgramNoVerifyDevices(r, mp.devScratch) + amp*f
		p.Data.Data[off] = mp.desired[i] + mp.signs[i]*e*scale
		mp.Verified[i] = false
		mp.trackCond(i, f)
	}
	mp.needFull = mp.tracking()
}

// markDirty queues weight i for the next incremental SyncRead. A no-op
// without an active nonideality or calibration, or when a full sync is
// already pending.
func (mp *Mapped) markDirty(i int) {
	if mp.tracking() && !mp.needFull {
		mp.dirty = append(mp.dirty, i)
	}
}

// WriteVerifyAt write-verifies weight i, charging its cycles to the bill and
// leaving the programmed value within tolerance of the desired value.
func (mp *Mapped) WriteVerifyAt(i int, r *rng.Source) int {
	p, off, scale := mp.locate(i)
	res, cycles := mp.Model.WriteVerifyDevices(mp.mags[i], r, mp.devScratch)
	p.Data.Data[off] = mp.desired[i] + mp.signs[i]*res*scale
	mp.Verified[i] = true
	mp.CyclesUsed += float64(cycles)
	mp.trackCond(i, 0)
	mp.markDirty(i)
	return cycles
}

// WriteVerifyPrefix write-verifies the first n entries of order (skipping
// already-verified weights) — one granule of the paper's Algorithm 1 loop.
func (mp *Mapped) WriteVerifyPrefix(order []int, n int, r *rng.Source) {
	if n > len(order) {
		n = len(order)
	}
	for _, idx := range order[:n] {
		if !mp.Verified[idx] {
			mp.WriteVerifyAt(idx, r)
		}
	}
}

// NoisyWriteAt re-programs weight i to a new desired float value without
// verification (the in-situ training write): the value is quantized to the
// device grid and lands with fresh Eq. 16 noise. Costs exactly one write
// cycle, matching the paper's in-situ accounting ("the number of writes in
// each iteration ... is equal to the number of weights ... selected for
// update ... as no write-verify is done").
func (mp *Mapped) NoisyWriteAt(i int, value float64, r *rng.Source) {
	p, off, scale := mp.locate(i)
	levels := int(1)<<mp.Model.WeightBits - 1
	sign := 1.0
	if value < 0 {
		sign = -1
	}
	mag := int(abs(value)/scale + 0.5)
	if mag > levels {
		mag = levels
	}
	mp.mags[i] = mag
	mp.signs[i] = sign
	mp.desired[i] = sign * float64(mag) * scale
	e := mp.Model.ProgramNoVerifyDevices(r, mp.devScratch)
	p.Data.Data[off] = mp.desired[i] + sign*e*scale
	mp.Verified[i] = false
	mp.CyclesUsed++
	mp.trackCond(i, 0)
	mp.markDirty(i)
}

// IncrementAt applies one unverified incremental update pulse to weight i,
// requesting a change of delta (float weight units). The landed change
// carries the device's incremental-pulse noise and the conductance clamps to
// the representable magnitude range. Costs one write cycle — the in-situ
// training write (paper §4.2: one write per weight updated, no verify).
//
// Under an active nonideality scenario the pulse is applied to the TRUE
// stored conductances, not to the degraded read-out SyncRead last wrote
// into the network: programming acts on the device, while the nonideal
// view only changes what evaluation sees. Without this distinction each
// accuracy sync would be baked into the device state and the degradation
// would compound once per measurement.
func (mp *Mapped) IncrementAt(i int, delta float64, r *rng.Source) {
	p, off, scale := mp.locate(i)
	levels := float64(int(1)<<mp.Model.WeightBits - 1)
	cur := p.Data.Data[off]
	if mp.tracking() {
		cur = 0
		base := i * len(mp.pow2)
		for d := range mp.pow2 {
			cur += mp.pow2[d] * mp.cond[base+d]
		}
		cur *= scale
	}
	landed := mp.Model.Increment(delta/scale, r) * scale
	next := cur + landed
	// The differential pair saturates at ±full-scale.
	if next > levels*scale {
		next = levels * scale
	} else if next < -levels*scale {
		next = -levels * scale
	}
	p.Data.Data[off] = next
	mp.Verified[i] = false
	mp.CyclesUsed++
	// Track the per-device conductances implied by the incremented value:
	// the integer part bit-slices exactly; the fractional remainder sits on
	// the least-significant device (significance 2^0).
	asign := 1.0
	if next < 0 {
		asign = -1
	}
	magf := abs(next) / scale
	intMag := int(magf)
	mask := int(1)<<mp.Model.DeviceBits - 1
	nd := len(mp.devScratch)
	for d := 0; d < nd; d++ {
		target := float64((intMag >> (d * mp.Model.DeviceBits)) & mask)
		if d == 0 {
			target += magf - float64(intMag)
		}
		mp.cond[i*nd+d] = asign * target
	}
	mp.markDirty(i)
}

// BaselineCycles returns the expected cost of write-verifying every weight —
// the denominator of NWC.
func (mp *Mapped) BaselineCycles() float64 {
	total := 0.0
	for _, mag := range mp.mags {
		total += mp.cycleTable[mag]
	}
	return total
}

// NWC returns the normalized write cycles spent so far: CyclesUsed divided
// by the cost of write-verifying all the weights under the same model.
func (mp *Mapped) NWC() float64 {
	return mp.CyclesUsed / mp.BaselineCycles()
}

// SetNonideal installs a read-time nonideality instance: from now on every
// Accuracy measurement (and this call itself) recomputes the network's
// mapped weights as the degraded read-out of the tracked per-device
// conductances at readTime seconds after programming, instead of the ideal
// time-0 values. Programming operations (write-verify, in-situ writes)
// still act on the true device state: the whole programming pass happens
// at t = 0 and every device — verified or not — degrades for the full
// read time, so write-verify's benefit under degradation is the smaller
// time-0 error it leaves behind, the interaction the scenario sweeps
// study. A nil inst clears the hook; the weights keep their last-synced
// values until the next programming operation rewrites them.
func (mp *Mapped) SetNonideal(inst nonideal.Instance, readTime float64) {
	mp.inst, mp.readTime = inst, readTime
	mp.dirty = mp.dirty[:0]
	if mp.tracking() {
		mp.needFull = true
		mp.SyncRead()
	}
}

// SetCalibration installs a per-trial calibration instance (package calib):
// from now on every SyncRead recomputes the raw read-out of the tracked
// conductances — degraded by the active nonideality when one is installed,
// the true stored values otherwise — refits the calibrator's per-parameter
// correction from its probe budget, and writes the corrected weights into
// the network. Calibration sits strictly after nonideality application:
// the fit sees exactly what a probe read at the configured read time would
// measure.
//
// Installed over a nonideality with no calibration in place, the first
// fit reads only the devices reprogrammed since the last sync: the network
// already holds every other weight's raw read-out, and Apply is pure, so a
// second read would return the same bits. A nil c removes the stage and
// puts the raw read-out back into the network.
func (mp *Mapped) SetCalibration(c *calib.Calibrator) {
	if c == nil {
		if mp.cal != nil {
			// The network holds corrected values: re-read every weight.
			mp.cal, mp.rawRead, mp.corr = nil, nil, nil
			mp.dirty, mp.needFull = mp.dirty[:0], false
			for i := 0; i < mp.total; i++ {
				mp.syncWeight(i)
			}
		}
		return
	}
	if mp.rawRead == nil {
		mp.rawRead = make([]float64, mp.total)
		mp.corr = make([]calib.Correction, len(mp.loc.params))
	}
	if mp.inst != nil && mp.cal == nil {
		mp.SyncRead() // lands pending reprograms' raw read-out in the network
		mp.cal = c
		for pi, p := range mp.loc.params {
			copy(mp.rawRead[mp.loc.offsets[pi]:], p.Data.Data)
		}
		mp.recalibrate()
		return
	}
	mp.cal = c
	mp.needFull = true
	mp.SyncRead()
}

// SyncRead recomputes mapped weights as the nonideal read-out of their
// per-device conductances at the configured read time. It is a no-op
// without SetNonideal; Accuracy calls it automatically, so explicit calls
// are only needed by callers that evaluate the network outside Accuracy
// (e.g. the Fig. 1 perturbation study). Only weights reprogrammed since
// the previous sync are recomputed (Instance.Apply is pure, so untouched
// weights re-sync to identical values); the first sync after SetNonideal
// or a whole-network reprogram covers everything.
func (mp *Mapped) SyncRead() {
	if !mp.tracking() {
		return
	}
	changed := mp.needFull || len(mp.dirty) > 0
	if mp.needFull {
		for i := 0; i < mp.total; i++ {
			mp.syncWeight(i)
		}
		mp.needFull = false
	} else {
		for _, i := range mp.dirty {
			mp.syncWeight(i)
		}
	}
	mp.dirty = mp.dirty[:0]
	if mp.cal != nil && changed {
		mp.recalibrate()
	}
}

// syncWeight recomputes weight i's read-out from its tracked conductances —
// degraded through the nonideality instance when one is installed — and
// lands it in the network, or in the raw buffer when a calibration stage
// will correct it first.
func (mp *Mapped) syncWeight(i int) {
	p, off, scale := mp.locate(i)
	nd := len(mp.pow2)
	base := i * nd
	eff := 0.0
	if mp.inst == nil {
		for d := 0; d < nd; d++ {
			eff += mp.pow2[d] * mp.cond[base+d]
		}
	} else {
		for d := 0; d < nd; d++ {
			g, sign := mp.cond[base+d], 1.0
			if g < 0 {
				sign, g = -1, -g
			}
			eff += mp.pow2[d] * sign * mp.inst.Apply(base+d, g, mp.readTime)
		}
	}
	v := eff * scale
	if mp.cal != nil {
		mp.rawRead[i] = v
		return
	}
	p.Data.Data[off] = v
}

// recalibrate refits every mapped parameter's correction from the current
// raw read-out and writes the corrected weights into the network. The fit
// treats each parameter as a [rows × cols] matrix with rows = Shape[0] (the
// output dimension — the crossbar's bit lines), matching the im2col mapping
// the cost tier's geometry uses. Fit is pure in (trial key, parameter,
// data), so recalibrating after every programming change keeps results
// independent of how the trial's budget walk is scheduled.
func (mp *Mapped) recalibrate() {
	for pi, p := range mp.loc.params {
		base := mp.loc.offsets[pi]
		n := p.Size()
		rows := p.Data.Shape[0]
		cols := n / rows
		mp.corr[pi] = mp.cal.Fit(pi, mp.desired[base:base+n], mp.rawRead[base:base+n], rows, cols)
		c := &mp.corr[pi]
		out := p.Data.Data
		for j, v := range mp.rawRead[base : base+n] {
			out[j] = c.Apply(j, v)
		}
	}
}

// SetEvalArena shares an arena with the compiled evaluation engine — its
// scratch and its binding's checkpoints — so successive trials handled by
// the same Monte-Carlo worker reuse one arena instead of growing a fresh
// one each. Call it before the first Accuracy measurement; the arena must
// not be used concurrently.
func (mp *Mapped) SetEvalArena(a *tensor.Arena) { mp.evalArena = a }

// SetKernel selects the kernel backend the compiled evaluation plans route
// their dense primitives through (nil keeps kernel.Default()). Pipelines
// never call it; a benchmark does, to time the backend. Call it before the
// first Accuracy measurement, alongside SetEvalArena.
func (mp *Mapped) SetKernel(k kernel.Backend) { mp.evalKern = k }

// Accuracy evaluates the programmed network's top-1 accuracy (%) over the
// given evaluation set. It runs through compiled evaluation plans (package
// eval) — bit-for-bit identical to the evaluation-mode Forward but with zero
// steady-state allocations — bound to (x, y, batch): a re-measurement
// resumes at the first layer whose state changed since the previous one,
// and returns the remembered accuracy when nothing did. A different x or y
// (another backing array) or batch size rebinds; the set must not be
// modified in place between calls. A malformed evaluation set (empty, a
// label count that differs from the sample count, a non-positive batch
// size) is a bug in the caller, so the evaluator's error panics; Monte-Carlo
// runs turn a trial panic into the run's error (package mc).
func (mp *Mapped) Accuracy(x *tensor.Tensor, y []int, batch int) float64 {
	mp.SyncRead()
	if mp.ev == nil {
		mp.ev = eval.NewEvaluatorKernel(mp.Net, mp.evalArena, mp.evalKern)
	}
	if mp.bound == nil || !mp.bound.On(x, y, batch) {
		b, err := mp.ev.Bind(x, y, batch)
		if err != nil {
			panic(err)
		}
		mp.bound = b
	}
	acc, err := mp.bound.Accuracy()
	if err != nil {
		panic(err)
	}
	return acc
}

// ProgrammedError returns the current per-weight deviation (programmed −
// desired) in float weight units, for diagnostics and tests.
func (mp *Mapped) ProgrammedError() []float64 {
	out := make([]float64, mp.total)
	for i := 0; i < mp.total; i++ {
		p, off, _ := mp.locate(i)
		out[i] = p.Data.Data[off] - mp.desired[i]
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
