package cost

import (
	"math"
	"strings"
	"testing"

	"swim/internal/spec"
	"swim/internal/stat"
)

func TestPresetsRegistered(t *testing.T) {
	got := Registered()
	for _, want := range []string{"lightening", "ramwich", "rram"} {
		found := false
		for _, name := range got {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("preset %q not registered (got %v)", want, got)
		}
	}
}

func TestSpecRoundTrips(t *testing.T) {
	specs := []string{
		"rram",
		"rram:write_pj=12.5,par=64",
		"lightening",
		"lightening:bits=6",
		"lightening:bits=6,fs_gsps=10",
		"ramwich",
		"ramwich:dac_pj=1e-3",
	}
	for _, spec := range specs {
		m, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		canon := m.Spec()
		if !strings.Contains(canon, "=") {
			t.Fatalf("Spec(%q) = %q spells out no parameters", spec, canon)
		}
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(Spec(%q)) = Parse(%q): %v", spec, canon, err)
		}
		if again != m {
			t.Fatalf("spec %q does not round-trip:\n canon %q\n first %+v\n again %+v", spec, canon, m, again)
		}
	}
}

func TestSpecReflectsOverrides(t *testing.T) {
	m, err := Parse("rram:write_pj=12.5")
	if err != nil {
		t.Fatal(err)
	}
	if m.Write.EnergyPJ != 12.5 {
		t.Fatalf("write_pj override not applied: %+v", m.Write)
	}
	if !strings.Contains(m.Spec(), "write_pj=12.5") {
		t.Fatalf("Spec() = %q does not spell out the override", m.Spec())
	}
}

func TestLighteningFoMScaling(t *testing.T) {
	m8, err := Parse("lightening")
	if err != nil {
		t.Fatal(err)
	}
	m6, err := Parse("lightening:bits=6")
	if err != nil {
		t.Fatal(err)
	}
	// 8-bit default: 50 mW at 14 GS/s = 50/14 pJ per conversion.
	if got, want := m8.DAC.EnergyPJ, 50.0/14.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("8-bit DAC energy = %g, want %g", got, want)
	}
	// Dropping to 6 bits rescales power by fom(6)/fom(8) = (64/7)/(256/9).
	scale := (math.Exp2(6) / 7) / (math.Exp2(8) / 9)
	if got, want := m6.DAC.EnergyPJ, 50.0/14.0*scale; math.Abs(got-want) > 1e-12 {
		t.Fatalf("6-bit DAC energy = %g, want %g", got, want)
	}
	if m6.DAC.EnergyPJ >= m8.DAC.EnergyPJ {
		t.Fatalf("fewer bits must cost less power: %g >= %g", m6.DAC.EnergyPJ, m8.DAC.EnergyPJ)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"nosuch",
		"rram:write_pj",
		"rram:write_pj=abc",
		"rram:bogus=1",
		"rram:par=0",
		"rram:par=1.5",
		"rram:write_pj=-1",
		"lightening:bits=99",
		"lightening:fs_gsps=0",
	} {
		if _, err := Parse(spec); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestFromFlag(t *testing.T) {
	if _, ok, listing, err := FromFlag("list"); err != nil || ok || listing == "" {
		t.Fatalf("FromFlag(list) = ok=%v listing=%q err=%v", ok, listing, err)
	}
	for _, spec := range []string{"", "none", "  none  "} {
		if _, ok, _, err := FromFlag(spec); err != nil || ok {
			t.Fatalf("FromFlag(%q) = ok=%v err=%v, want disabled", spec, ok, err)
		}
	}
	m, ok, _, err := FromFlag("rram")
	if err != nil || !ok || m.Spec() == "" {
		t.Fatalf("FromFlag(rram) = %+v ok=%v err=%v", m, ok, err)
	}
	if _, _, _, err := FromFlag("nosuch"); err == nil {
		t.Fatal("FromFlag(nosuch) succeeded, want error")
	}
}

func TestDuplicateRegister(t *testing.T) {
	if err := Register("rram", func(*spec.Params) (Model, error) { return Model{}, nil }); err == nil {
		t.Fatal("duplicate Register succeeded, want error")
	}
	if err := Register("", func(*spec.Params) (Model, error) { return Model{}, nil }); err == nil {
		t.Fatal("empty-name Register succeeded, want error")
	}
	if err := Register("x", nil); err == nil {
		t.Fatal("nil-builder Register succeeded, want error")
	}
}

// TestReportScaling pins the unit math: programming energy is cycles × per
// cycle energy, time divides by parallelism, and the aggregates are the
// exact scaled moments of the cycle aggregates.
func TestReportScaling(t *testing.T) {
	m, err := Parse("rram:write_pj=10,write_ns=100,verify_pj=1,verify_ns=10,par=2")
	if err != nil {
		t.Fatal(err)
	}
	cycles := &stat.Welford{}
	for _, c := range []float64{1000, 2000, 3000} {
		cycles.Add(c)
	}
	g := Geometry{
		Weights: 100, Slices: 2,
		TileRows: 128, TileCols: 128,
		Tiles: 4, MatVecs: 8, DACs: 1024, ADCs: 512,
	}
	rep := m.Report(g, []float64{0.1}, []*stat.Welford{cycles})
	if rep.Model != m.Spec() {
		t.Fatalf("report model %q != spec %q", rep.Model, m.Spec())
	}
	if len(rep.Points) != 1 || rep.Points[0].Target != 0.1 {
		t.Fatalf("bad points: %+v", rep.Points)
	}
	p := rep.Points[0]
	// 2000 mean cycles × 11 pJ/cycle = 22000 pJ = 0.022 µJ.
	if got, want := p.EnergyUJ.Mean(), 2000*11e-6; math.Abs(got-want) > 1e-15 {
		t.Fatalf("energy mean = %g µJ, want %g", got, want)
	}
	// 2000 mean cycles × 110 ns ÷ par 2 = 110000 ns = 0.11 ms.
	if got, want := p.TimeMS.Mean(), 2000*110e-6/2; math.Abs(got-want) > 1e-15 {
		t.Fatalf("time mean = %g ms, want %g", got, want)
	}
	if p.EnergyUJ.N() != cycles.N() {
		t.Fatalf("energy N = %d, want %d", p.EnergyUJ.N(), cycles.N())
	}
	// Scaled std must equal k × std exactly up to float rounding.
	kE := 11e-6
	if got, want := p.EnergyUJ.Std(), kE*cycles.Std(); math.Abs(got-want) > 1e-18 {
		t.Fatalf("energy std = %g, want %g", got, want)
	}
	// Inference: DACs·2 + MatVecs·1 + ADCs·2 pJ = 2048+8+1024 = 3080 pJ = 3.08 nJ.
	if got, want := rep.InferenceEnergyNJ, 3.080; math.Abs(got-want) > 1e-12 {
		t.Fatalf("inference energy = %g nJ, want %g", got, want)
	}
	// Latency: 8 MatVecs × (1+10+1) ns = 96 ns = 0.096 µs.
	if got, want := rep.InferenceLatencyUS, 0.096; math.Abs(got-want) > 1e-12 {
		t.Fatalf("inference latency = %g µs, want %g", got, want)
	}
	// Area: 4 tiles × (128·500 + 128·3000 + 128·128·0.04) µm².
	wantArea := 4 * (128*500 + 128*3000 + 128*128*0.04) * 1e-6
	if got := rep.AreaMM2; math.Abs(got-wantArea) > 1e-12 {
		t.Fatalf("area = %g mm², want %g", got, wantArea)
	}
	if g.Devices() != 200 {
		t.Fatalf("devices = %d, want 200", g.Devices())
	}
}

// TestReportScaledMomentsExact verifies the moment transform is the exact
// float operation (n unchanged, mean×k, m2×k²) — the determinism hinge.
func TestReportScaledMomentsExact(t *testing.T) {
	w := &stat.Welford{}
	for i := 0; i < 97; i++ {
		w.Add(float64(i*i%311) + 0.25)
	}
	m, err := Parse("rram")
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Report(Geometry{}, []float64{0}, []*stat.Welford{w})
	k := m.CycleEnergyPJ() * 1e-6
	e := rep.Points[0].EnergyUJ
	if e.N() != w.N() || e.Mean() != k*w.Mean() || e.M2() != k*k*w.M2() {
		t.Fatalf("scaled moments not exact: n %d/%d mean %v/%v m2 %v/%v",
			e.N(), w.N(), e.Mean(), k*w.Mean(), e.M2(), k*k*w.M2())
	}
}

// TestReportNilCycles covers grid points with no cycle aggregate (e.g. a
// restored legacy record): the point survives with nil aggregates.
func TestReportNilCycles(t *testing.T) {
	m, err := Parse("rram")
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Report(Geometry{}, []float64{0, 0.1}, []*stat.Welford{nil})
	if len(rep.Points) != 2 {
		t.Fatalf("want 2 points, got %d", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.EnergyUJ != nil || p.TimeMS != nil {
			t.Fatalf("nil cycles must yield nil aggregates: %+v", p)
		}
	}
}
