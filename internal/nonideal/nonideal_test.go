package nonideal

import (
	"math"
	"testing"

	"swim/internal/device"
	"swim/internal/rng"
)

func testModel() device.Model { return device.Default(8, 0.5) } // 2 bit-slices

// Every registered model must round-trip its full spec through Parse and
// yield the identical configured value.
func TestSpecRoundTrip(t *testing.T) {
	for _, name := range Registered() {
		n, err := Parse(name)
		if err != nil {
			t.Fatalf("%s: defaults rejected: %v", name, err)
		}
		again, err := Parse(n.String())
		if err != nil {
			t.Fatalf("%s: spec %q does not re-parse: %v", name, n.String(), err)
		}
		if again.String() != n.String() {
			t.Fatalf("%s: round-trip changed spec: %q -> %q", name, n.String(), again.String())
		}
		if n.Name() != name {
			t.Fatalf("Name() = %q, registered as %q", n.Name(), name)
		}
	}
}

func TestParseStack(t *testing.T) {
	models, err := ParseStack("drift:nu=0.05+stuckat:p=0.01,high=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || models[0].Name() != "drift" || models[1].Name() != "stuckat" {
		t.Fatalf("unexpected stack: %v", Names(models))
	}
	if got := StackString(models); got != "drift:nu=0.05,nustd=0.005,t0=1+stuckat:p=0.01,high=1" {
		t.Fatalf("StackString = %q", got)
	}
	for _, empty := range []string{"", "none", "  none  "} {
		if ms, err := ParseStack(empty); err != nil || len(ms) != 0 {
			t.Fatalf("ParseStack(%q) = %v, %v; want empty", empty, ms, err)
		}
	}
	if StackString(nil) != "none" {
		t.Fatalf("StackString(nil) = %q", StackString(nil))
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"warp",                 // unknown model
		"drift:nu",             // malformed parameter
		"drift:nu=x",           // bad value
		"drift:frequency=3",    // unknown parameter
		"stuckat:p=2",          // out of range
		"quantlevels:bits=0.5", // non-integer bits
	} {
		if _, err := ParseStack(spec); err == nil {
			t.Errorf("ParseStack(%q) succeeded, want error", spec)
		}
	}
}

// Apply must be pure and independent of read order: reading devices in any
// order, any number of times, yields the same per-device values.
func TestReadOrderInvariance(t *testing.T) {
	m := testModel()
	models, err := ParseStack("drift:nu=0.05,nustd=0.02+retention:tau=1e4+stuckat:p=0.2+d2d:spread=0.5+quantlevels:bits=4")
	if err != nil {
		t.Fatal(err)
	}
	const n, tRead = 64, 3600.0
	forward := NewTrials(models, m, rng.New(7))
	backward := NewTrials(models, m, rng.New(7))
	a := make([]float64, n)
	for dev := 0; dev < n; dev++ {
		a[dev] = forward.Apply(dev, 7.5, tRead)
	}
	for dev := n - 1; dev >= 0; dev-- {
		if got := backward.Apply(dev, 7.5, tRead); got != a[dev] {
			t.Fatalf("device %d: reverse read %v != forward read %v", dev, got, a[dev])
		}
		// Re-reading must also be stable (no hidden stream state).
		if got := backward.Apply(dev, 7.5, tRead); got != a[dev] {
			t.Fatalf("device %d: second read diverged", dev)
		}
	}
}

// Two trials with different streams must differ; the same stream must agree.
func TestTrialDeterminism(t *testing.T) {
	m := testModel()
	models, _ := ParseStack("stuckat:p=0.5")
	a := NewTrials(models, m, rng.New(1))
	b := NewTrials(models, m, rng.New(1))
	c := NewTrials(models, m, rng.New(2))
	same, diff := true, false
	for dev := 0; dev < 256; dev++ {
		if a.Apply(dev, 3, 0) != b.Apply(dev, 3, 0) {
			same = false
		}
		if a.Apply(dev, 3, 0) != c.Apply(dev, 3, 0) {
			diff = true
		}
	}
	if !same {
		t.Fatal("identical seeds produced different trials")
	}
	if !diff {
		t.Fatal("distinct seeds produced identical stuck-fault patterns")
	}
}

func TestDriftDecaysMonotonically(t *testing.T) {
	d := Drift{Nu: 0.05, NuStd: 0, T0: 1}
	in := d.NewTrial(testModel(), rng.New(3))
	g := 10.0
	prev := in.Apply(0, g, 0)
	if prev != g {
		t.Fatalf("drift at t<=t0 must be identity, got %v", prev)
	}
	for _, tt := range []float64{10, 3600, 86400} {
		cur := in.Apply(0, g, tt)
		if cur >= prev || cur <= 0 {
			t.Fatalf("drift not decaying: g(%g)=%v after %v", tt, cur, prev)
		}
		prev = cur
	}
	// ν = 0.05 over a day: 10 · (86400)^-0.05 ≈ 5.67.
	want := g * math.Pow(86400, -0.05)
	if got := in.Apply(0, g, 86400); math.Abs(got-want) > 1e-12 {
		t.Fatalf("drift(1d) = %v, want %v", got, want)
	}
}

func TestRetentionRelaxesTowardReset(t *testing.T) {
	d := Retention{Tau: 100, Spread: 0}
	in := d.NewTrial(testModel(), rng.New(4))
	if got := in.Apply(0, 8, 0); got != 8 {
		t.Fatalf("retention at t=0 must be identity, got %v", got)
	}
	got := in.Apply(0, 8, 100)
	want := 8 * math.Exp(-1)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("retention(tau) = %v, want %v", got, want)
	}
}

func TestStuckAtRateAndValues(t *testing.T) {
	m := testModel()
	in := StuckAt{P: 0.25, High: 1}.NewTrial(m, rng.New(5))
	stuck := 0
	const n = 4000
	for dev := 0; dev < n; dev++ {
		got := in.Apply(dev, 3.3, 0)
		if got != 3.3 {
			stuck++
			if want := float64(m.DeviceLevels(sliceOf(m, dev))); got != want {
				t.Fatalf("high-stuck device %d reads %v, want full scale %v", dev, got, want)
			}
		}
	}
	if rate := float64(stuck) / n; math.Abs(rate-0.25) > 0.03 {
		t.Fatalf("stuck rate %v, want ~0.25", rate)
	}
	low := StuckAt{P: 1, High: 0}.NewTrial(m, rng.New(6))
	if got := low.Apply(0, 9, 0); got != 0 {
		t.Fatalf("low-stuck device reads %v, want 0", got)
	}
}

func TestD2DOffsetsAreStaticPerDevice(t *testing.T) {
	m := testModel()
	in := D2D{Spread: 0.3}.NewTrial(m, rng.New(8))
	var sum, sumSq float64
	const n = 4000
	for dev := 0; dev < n; dev++ {
		off := in.Apply(dev, 5, 0) - 5
		if off != in.Apply(dev, 5, 1e6)-5 {
			t.Fatalf("device %d offset is time-dependent", dev)
		}
		sum += off
		sumSq += off * off
	}
	mean, std := sum/n, math.Sqrt(sumSq/n)
	if math.Abs(mean) > 0.05 {
		t.Fatalf("d2d offsets biased: mean %v", mean)
	}
	// Offsets ~ N(0, (σ·|1+N(0,0.3)|)²): std ≈ σ·sqrt(E[s²]) = 0.5·sqrt(1.09).
	if want := m.Sigma * math.Sqrt(1+0.3*0.3); math.Abs(std-want) > 0.05 {
		t.Fatalf("d2d offset std %v, want ~%v", std, want)
	}
}

func TestQuantLevelsSnapsAndClamps(t *testing.T) {
	m := testModel()
	in := QuantLevels{Bits: 2}.NewTrial(m, rng.New(9))
	full := float64(m.DeviceLevels(0)) // 15 levels, 2-bit snap: 0, 5, 10, 15
	for g, want := range map[float64]float64{0: 0, 2.4: 0, 2.6: full / 3, 7.6: full / 3 * 2, 14: full, 99: full, -1: 0} {
		if got := in.Apply(0, g, 0); math.Abs(got-want) > 1e-12 {
			t.Fatalf("quantlevels(%v) = %v, want %v", g, got, want)
		}
	}
}

// Stacking must compose left to right.
func TestStackComposition(t *testing.T) {
	m := testModel()
	stack := Stack{
		QuantLevels{Bits: 4}.NewTrial(m, rng.New(10)),
		Drift{Nu: 0.1, NuStd: 0, T0: 1}.NewTrial(m, rng.New(11)),
	}
	g, tRead := 7.3, 100.0
	want := stack[1].Apply(3, stack[0].Apply(3, g, tRead), tRead)
	if got := stack.Apply(3, g, tRead); got != want {
		t.Fatalf("stack composition: %v != %v", got, want)
	}
}

// NewTrials must consume a fixed amount of the parent stream per model so
// sibling streams never shift when a model changes its internal draws.
func TestNewTrialsStreamDiscipline(t *testing.T) {
	m := testModel()
	one, _ := ParseStack("drift")
	two, _ := ParseStack("quantlevels:bits=3+drift")
	rA, rB := rng.New(42), rng.New(42)
	NewTrials(one, m, rA)
	NewTrials(two, m, rB)
	// After minting, both parents must have advanced by len(models) splits.
	a, b := rA.Uint64(), rB.Uint64()
	if a == b {
		t.Fatal("parent streams advanced identically for different stack sizes")
	}
	rC, rD := rng.New(42), rng.New(42)
	NewTrials(one, m, rC)
	other, _ := ParseStack("retention") // different model, same stack size
	NewTrials(other, m, rD)
	if rC.Uint64() != rD.Uint64() {
		t.Fatal("equal-size stacks consumed different amounts of the parent stream")
	}
}

// The drift read-out, bound to its read time by At or not, must return
// g·math.Pow(t/t0, −ν) bit for bit: for ν in (0, ½), where a bound instance
// takes Pow's own branch with the log taken once, and at ½, ½+ulp, 0.9 and
// 1.5, where it calls Pow. A bound instance read at another time computes
// that time's log itself.
func TestDriftReadoutMatchesPow(t *testing.T) {
	m := testModel()
	half := 0.5
	nus := []float64{5e-324, 1e-9, 0.005, 0.02, 0.1, 0.25, 0.4, math.Nextafter(half, 0),
		half, math.Nextafter(half, 1), 0.9, 1.5}
	r := rng.New(41)
	for i := 0; i < 20; i++ {
		nus = append(nus, 0.5*r.Float64())
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, t0 := range []float64{1, 3} {
		for _, ratio := range []float64{math.Nextafter(1, 2), 2, 86400, 1e300} {
			readT := ratio * t0
			for _, nu := range nus {
				inst := Drift{Nu: nu, NuStd: 0, T0: t0}.NewTrial(m, rng.New(7))
				bound, stacked := At(inst, readT), At(Stack{inst}, readT)
				for dev, g := range []float64{0.03, 1, 7.5, 15} {
					for _, at := range []float64{readT, 2 * readT, 3600} {
						want := g
						if at > t0 {
							want = g * math.Pow(at/t0, -nu)
						}
						for _, got := range []float64{inst.Apply(dev, g, at), bound.Apply(dev, g, at), stacked.Apply(dev, g, at)} {
							if !same(got, want) {
								t.Fatalf("t0=%v t=%v nu=%v g=%v: read-out %v, want g·Pow = %v", t0, at, nu, g, got, want)
							}
						}
					}
				}
			}
		}
	}
	// Per-device coefficients straddling ½ and 0 in one instance.
	inst := Drift{Nu: 0.3, NuStd: 0.3, T0: 1}.NewTrial(m, rng.New(8))
	bound := At(inst, 86400)
	key := inst.(driftInstance).key
	for dev := 0; dev < 4000; dev++ {
		s := rng.NewLocal(devKey(key, dev))
		nu := 0.3 + 0.3*s.Norm()
		want := 2.5
		if nu > 0 {
			want = 2.5 * math.Pow(86400, -nu)
		}
		if got := bound.Apply(dev, 2.5, 86400); !same(got, want) {
			t.Fatalf("device %d (nu=%v): bound read-out %v, want %v", dev, nu, got, want)
		}
	}
}

// At leaves nil and instances with no per-read-time work as they are, and
// hands back a Stack of the same length.
func TestAtKeepsOtherInstances(t *testing.T) {
	if At(nil, 86400) != nil {
		t.Fatal("At(nil) is not nil")
	}
	st := StuckAt{P: 0.5, High: 0.5}.NewTrial(testModel(), rng.New(1))
	if At(st, 86400) != st {
		t.Fatal("At changed a stuck-at instance")
	}
	if s, ok := At(Stack{}, 1).(Stack); !ok || len(s) != 0 {
		t.Fatalf("At(empty Stack) = %#v", s)
	}
}
