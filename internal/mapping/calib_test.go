package mapping

import (
	"math"
	"testing"

	"swim/internal/calib"
	"swim/internal/device"
	"swim/internal/models"
	"swim/internal/nonideal"
	"swim/internal/rng"
)

// gainInstance scales every conductance by a fixed factor — a purely
// systematic multiplicative degradation an affine fit can undo exactly.
type gainInstance struct{ g float64 }

func (gi gainInstance) Apply(_ int, g float64, _ float64) float64 { return gi.g * g }

func mustCalibrator(t *testing.T, spec string, seed uint64) *calib.Calibrator {
	t.Helper()
	m, err := calib.Parse(spec)
	if err != nil {
		t.Fatalf("calib.Parse(%q): %v", spec, err)
	}
	return m.NewTrial(rng.New(seed))
}

// A noiseless device programs conductances exactly, so a pure-gain read-out
// degradation is exactly affine in the desired weights and the fitted
// correction must recover them to rounding.
func TestCalibrationRecoversGainDegradation(t *testing.T) {
	r := rng.New(1)
	net := models.LeNet(10, 4, r)
	dm := device.Default(4, 0) // sigma 0: programming lands exactly on target
	mp := mustNew(t, net, dm, dm.CycleTable(50, rng.New(2)), rng.New(3))

	mp.SetNonideal(gainInstance{g: 0.8}, 0)
	degraded := 0.0
	for _, e := range mp.ProgrammedError() {
		degraded += math.Abs(e)
	}
	if degraded == 0 {
		t.Fatal("gain degradation left read-out exact — test is vacuous")
	}

	// A large budget probes every column, so the fit sees the full matrix.
	mp.SetCalibration(mustCalibrator(t, "gainoffset:probes=4096", 5))
	for i, e := range mp.ProgrammedError() {
		if math.Abs(e) > 1e-9 {
			t.Fatalf("weight %d: calibrated error %g, want ~0", i, e)
		}
	}

	// Removing the stage reverts to the raw degraded read-out.
	mp.SetCalibration(nil)
	mp.SyncRead()
	raw := 0.0
	for _, e := range mp.ProgrammedError() {
		raw += math.Abs(e)
	}
	if math.Abs(raw-degraded) > 1e-9*(1+degraded) {
		t.Fatalf("after clearing calibration, residual %g != uncalibrated %g", raw, degraded)
	}
}

// A bounded probe budget cannot see the whole matrix, but the correction
// must still strictly reduce the aggregate drift error — the tier's whole
// reason to exist — and never depend on sync increments.
func TestCalibrationReducesDriftError(t *testing.T) {
	mp, dm := testNetAndDevice(t)
	inst := nonideal.Drift{Nu: 0.1, NuStd: 0.02, T0: 1}.NewTrial(dm, rng.New(11))
	mp.SetNonideal(inst, 86400)
	before := 0.0
	for _, e := range mp.ProgrammedError() {
		before += math.Abs(e)
	}
	mp.SetCalibration(mustCalibrator(t, "gainoffset:probes=8", 7))
	after := 0.0
	for _, e := range mp.ProgrammedError() {
		after += math.Abs(e)
	}
	if after >= before {
		t.Fatalf("calibration did not reduce drift error: %g -> %g", before, after)
	}
}

// Incremental syncing under calibration must be bit-identical to a full
// recompute: the raw read-out is maintained incrementally but the refit
// always covers the whole matrix.
func TestCalibrationIncrementalMatchesFull(t *testing.T) {
	mp, dm := testNetAndDevice(t)
	inst := nonideal.Drift{Nu: 0.05, NuStd: 0.01, T0: 1}.NewTrial(dm, rng.New(31))
	mp.SetNonideal(inst, 3600)
	mp.SetCalibration(mustCalibrator(t, "pertile:probes=4,tilerows=32,tilecols=32", 33))
	r := rng.New(32)
	for i := 100; i < 300; i++ {
		mp.WriteVerifyAt(i, r)
	}
	mp.IncrementAt(5, 0.01, r)
	mp.SyncRead() // incremental: only the dirty weights re-read, then refit
	incremental := make([]float64, mp.total)
	for i := range incremental {
		p, off, _ := mp.locate(i)
		incremental[i] = p.Data.Data[off]
	}
	mp.needFull = true
	mp.SyncRead() // full recompute of every weight
	for i := range incremental {
		p, off, _ := mp.locate(i)
		if p.Data.Data[off] != incremental[i] {
			t.Fatalf("weight %d: incremental calibrated sync %v != full %v", i, incremental[i], p.Data.Data[off])
		}
	}
}

// Calibration without a nonideality must fit against the device's stored
// conductances (programming noise only) and keep SyncRead well-defined.
func TestCalibrationWithoutNonideality(t *testing.T) {
	mp, _ := testNetAndDevice(t)
	before := 0.0
	for _, e := range mp.ProgrammedError() {
		before += math.Abs(e)
	}
	mp.SetCalibration(mustCalibrator(t, "gainoffset:probes=8", 21))
	after := 0.0
	for _, e := range mp.ProgrammedError() {
		after += math.Abs(e)
	}
	// Programming noise is zero-mean and column-independent, so a bounded
	// probe fit may not help much — but it must not blow the error up.
	if after > 2*before {
		t.Fatalf("calibration amplified programming error: %g -> %g", before, after)
	}
}

// countingInstance wraps an Instance and counts its device reads.
type countingInstance struct {
	inner nonideal.Instance
	reads int
}

func (ci *countingInstance) Apply(dev int, g float64, t float64) float64 {
	ci.reads++
	return ci.inner.Apply(dev, g, t)
}

// networkWeights snapshots the network's mapped weights in flat order.
func networkWeights(mp *Mapped) []float64 {
	out := make([]float64, mp.total)
	for i := range out {
		p, off, _ := mp.locate(i)
		out[i] = p.Data.Data[off]
	}
	return out
}

// requireFullResyncMatches forces a full resync and checks it leaves want,
// bit for bit, in the network.
func requireFullResyncMatches(t *testing.T, mp *Mapped, want []float64) {
	t.Helper()
	mp.needFull = true
	mp.SyncRead()
	for i, v := range networkWeights(mp) {
		if v != want[i] {
			t.Fatalf("weight %d: calibrated set-up %v != forced full resync %v", i, want[i], v)
		}
	}
}

// countedDriftMapping programs LeNet on two 2-bit devices per weight under
// a counted drift instance.
func countedDriftMapping(t *testing.T) (*Mapped, device.Model, *countingInstance) {
	t.Helper()
	dm := device.Default(4, 0.5)
	dm.DeviceBits = 2
	mp := mustNew(t, models.LeNet(10, 4, rng.New(1)), dm, dm.CycleTable(50, rng.New(2)), rng.New(3))
	ci := &countingInstance{inner: nonideal.Drift{Nu: 0.1, NuStd: 0.02, T0: 1}.NewTrial(dm, rng.New(41))}
	mp.SetNonideal(ci, 86400)
	return mp, dm, ci
}

// Trial set-up installs a nonideality and then a calibration. The
// calibration fits from the raw read-out the nonideality's sync left in the
// network, so set-up reads every device exactly once, and the result equals
// a full resync bit for bit.
func TestCalibrationSetupReadsEachDeviceOnce(t *testing.T) {
	mp, dm, ci := countedDriftMapping(t)
	mp.SetCalibration(mustCalibrator(t, "gainoffset", 43))
	if want := mp.TotalWeights() * dm.NumDevices(); ci.reads != want {
		t.Fatalf("set-up made %d device reads, want %d (one per device)", ci.reads, want)
	}
	requireFullResyncMatches(t, mp, networkWeights(mp))
}

// Weights reprogrammed between the nonideality and the calibration are
// re-read before the fit (only they are), and the fit still equals a full
// resync bit for bit.
func TestCalibrationSetupAfterReprogram(t *testing.T) {
	mp, dm, ci := countedDriftMapping(t)
	r := rng.New(42)
	const reprogrammed = 50
	for i := 0; i < reprogrammed; i++ {
		mp.WriteVerifyAt(7*i, r)
	}
	mp.SetCalibration(mustCalibrator(t, "gainoffset", 43))
	if want := (mp.TotalWeights() + reprogrammed) * dm.NumDevices(); ci.reads != want {
		t.Fatalf("set-up made %d device reads, want %d", ci.reads, want)
	}
	requireFullResyncMatches(t, mp, networkWeights(mp))
}
