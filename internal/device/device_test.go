package device

import (
	"math"
	"testing"
	"testing/quick"

	"swim/internal/rng"
)

func TestValidate(t *testing.T) {
	if err := Default(4, 0.1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Default(4, 0.1)
	bad.Tolerance = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero tolerance")
	}
	bad = Default(0, 0.1)
	if bad.Validate() == nil {
		t.Fatal("accepted zero weight bits")
	}
	bad = Default(4, -1)
	if bad.Validate() == nil {
		t.Fatal("accepted negative sigma")
	}
	for _, sigma := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if Default(4, sigma).Validate() == nil {
			t.Fatalf("accepted sigma %v", sigma)
		}
	}
}

func TestNumDevices(t *testing.T) {
	cases := []struct{ m, k, want int }{
		{4, 4, 1}, {6, 4, 2}, {8, 4, 2}, {8, 2, 4}, {5, 4, 2}, {1, 4, 1},
	}
	for _, c := range cases {
		mod := Default(c.m, 0.1)
		mod.DeviceBits = c.k
		if got := mod.NumDevices(); got != c.want {
			t.Fatalf("M=%d K=%d devices=%d, want %d", c.m, c.k, got, c.want)
		}
	}
}

func TestSliceMagnitudeReconstructs(t *testing.T) {
	// Property: Σ slice_i · 2^(iK) == mag for any representable magnitude.
	if err := quick.Check(func(raw uint8, kSel uint8) bool {
		m := Default(8, 0.1)
		m.DeviceBits = []int{1, 2, 4, 8}[int(kSel)%4]
		mag := int(raw)
		slices := m.SliceMagnitude(mag)
		sum := 0
		for i, s := range slices {
			if s < 0 || s >= int(1)<<m.DeviceBits {
				return false
			}
			sum += s << (i * m.DeviceBits)
		}
		return sum == mag
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNoiseStdMatchesEq16(t *testing.T) {
	m := Default(4, 0.1) // single device
	if math.Abs(m.NoiseStd()-0.1) > 1e-12 {
		t.Fatalf("M=4 noise std = %v, want 0.1", m.NoiseStd())
	}
	m6 := Default(8, 0.1) // two devices: sqrt(1 + 256)·σ
	want := 0.1 * math.Sqrt(257)
	if math.Abs(m6.NoiseStd()-want) > 1e-12 {
		t.Fatalf("M=8 noise std = %v, want %v", m6.NoiseStd(), want)
	}
}

func TestProgramNoVerifyMatchesNoiseStd(t *testing.T) {
	m := Default(6, 0.15)
	r := rng.New(1)
	var sumSq float64
	const n = 100000
	for i := 0; i < n; i++ {
		e := m.ProgramNoVerify(r)
		sumSq += e * e
	}
	got := math.Sqrt(sumSq / n)
	if math.Abs(got-m.NoiseStd()) > 0.05*m.NoiseStd() {
		t.Fatalf("empirical unverified std %v vs analytic %v", got, m.NoiseStd())
	}
}

func TestWriteVerifyResidualWithinTolerancePerDevice(t *testing.T) {
	m := Default(4, 0.2)
	r := rng.New(2)
	for i := 0; i < 5000; i++ {
		res, cycles := m.WriteVerify(r.Intn(16), r)
		if math.Abs(res) > m.Tolerance+1e-12 {
			t.Fatalf("residual %v exceeds tolerance (single device)", res)
		}
		if cycles < 0 || cycles > m.MaxPulses {
			t.Fatalf("cycle count %d out of range", cycles)
		}
	}
}

func TestWriteVerifyZeroTargetIsFree(t *testing.T) {
	m := Default(4, 0.1)
	r := rng.New(3)
	res, cycles := m.WriteVerify(0, r)
	if res != 0 || cycles != 0 {
		t.Fatalf("zero magnitude cost %d cycles with residual %v", cycles, res)
	}
}

func TestWriteVerifyCyclesGrowWithTarget(t *testing.T) {
	m := Default(4, 0.1)
	meanCycles := func(mag int) float64 {
		r := rng.New(uint64(40 + mag))
		total := 0
		for i := 0; i < 2000; i++ {
			_, c := m.WriteVerify(mag, r)
			total += c
		}
		return float64(total) / 2000
	}
	low, high := meanCycles(2), meanCycles(15)
	if high <= low {
		t.Fatalf("coarse ramp should make large targets cost more: low=%v high=%v", low, high)
	}
}

// The two anchor statistics the paper takes from Shim et al.: roughly ten
// write cycles per weight on average, and a post-write-verify residual spread
// of about σ = 0.03.
func TestCalibrationMatchesPaperAnchors(t *testing.T) {
	m := Default(4, 0.1)
	s := m.Calibrate(50000, rng.New(4))
	if s.MeanCycles < 8 || s.MeanCycles > 14 {
		t.Fatalf("uniform-target mean cycles = %.2f, want ~10 (8..14)", s.MeanCycles)
	}
	if s.ResidualStd < 0.025 || s.ResidualStd > 0.04 {
		t.Fatalf("residual std = %.4f, want ~0.03 (0.025..0.04)", s.ResidualStd)
	}
	g := m.CalibrateGaussian(50000, rng.New(5))
	if g.MeanCycles < 5 || g.MeanCycles > 12 {
		t.Fatalf("gaussian-weight mean cycles = %.2f, want 5..12", g.MeanCycles)
	}
}

func TestResidualStdStableAcrossSigma(t *testing.T) {
	// Write-verify pins the residual near the tolerance regardless of the
	// raw device σ — that is its entire point, and why the paper's Table 1
	// converges to the same accuracy at NWC = 1.0 for every σ.
	var stds []float64
	for i, sigma := range []float64{0.1, 0.15, 0.2} {
		s := Default(4, sigma).Calibrate(30000, rng.New(uint64(10+i)))
		stds = append(stds, s.ResidualStd)
	}
	for _, v := range stds {
		if math.Abs(v-stds[0]) > 0.005 {
			t.Fatalf("residual stds vary with sigma: %v", stds)
		}
	}
}

func TestVerifiedBeatsUnverified(t *testing.T) {
	m := Default(4, 0.1)
	s := m.Calibrate(20000, rng.New(6))
	if s.ResidualStd >= m.NoiseStd() {
		t.Fatalf("write-verify residual %v not better than raw noise %v", s.ResidualStd, m.NoiseStd())
	}
}

func TestMultiDeviceResidualScales(t *testing.T) {
	// With M=8, K=4 the high device's residual is amplified by 16 in LSB
	// units; overall residual should be ~16x the single-device case.
	s4 := Default(4, 0.1).Calibrate(20000, rng.New(7))
	s8 := Default(8, 0.1).Calibrate(20000, rng.New(8))
	ratio := s8.ResidualStd / s4.ResidualStd
	if ratio < 10 || ratio > 22 {
		t.Fatalf("multi-device residual ratio = %.2f, want ~16", ratio)
	}
}

func TestCycleTableMonotoneInMagnitude(t *testing.T) {
	m := Default(4, 0.1)
	table := m.CycleTable(2000, rng.New(20))
	if len(table) != 16 {
		t.Fatalf("table length %d, want 16", len(table))
	}
	if table[0] != 0 {
		t.Fatalf("zero magnitude should cost 0 cycles, got %v", table[0])
	}
	// The coarse ramp makes expected cycles grow with the target level.
	if table[15] <= table[1] {
		t.Fatalf("cycle cost should grow with magnitude: t[1]=%v t[15]=%v", table[1], table[15])
	}
	for mag, c := range table {
		if c < 0 || c > float64(m.MaxPulses) {
			t.Fatalf("table[%d] = %v out of range", mag, c)
		}
	}
}

func TestIncrementStatistics(t *testing.T) {
	m := Default(4, 0.1)
	r := rng.New(21)
	const delta = 0.5
	var sum, sumSq float64
	const n = 50000
	for i := 0; i < n; i++ {
		v := m.Increment(delta, r)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-delta) > 0.01 {
		t.Fatalf("increment mean = %v, want ~%v (unbiased pulses)", mean, delta)
	}
	// Variance combines relative jitter (delta·IncJitter) and the additive
	// floor (IncNoise).
	want := math.Sqrt(delta*delta*m.IncJitter*m.IncJitter + m.IncNoise*m.IncNoise)
	if math.Abs(std-want) > 0.01 {
		t.Fatalf("increment std = %v, want ~%v", std, want)
	}
}
