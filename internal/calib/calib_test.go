package calib

import (
	"math"
	"strings"
	"testing"

	"swim/internal/rng"
)

func mustParse(t *testing.T, spec string) Model {
	t.Helper()
	m, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return m
}

func TestModelsRegistered(t *testing.T) {
	got := Registered()
	for _, want := range []string{"gainoffset", "pertile"} {
		found := false
		for _, name := range got {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("model %q not registered (got %v)", want, got)
		}
	}
}

func TestSpecRoundTrips(t *testing.T) {
	specs := []string{
		"gainoffset",
		"gainoffset:probes=16",
		"pertile",
		"pertile:probes=4",
		"pertile:probes=4,tilerows=64,tilecols=32",
	}
	for _, spec := range specs {
		m := mustParse(t, spec)
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
		if again.Spec() != canon {
			t.Fatalf("Spec not idempotent for %q: %q vs %q", spec, canon, again.Spec())
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, spec := range []string{
		"",                      // empty
		"nope",                  // unknown model
		"gainoffset:probes=1",   // below minimum
		"gainoffset:probes=-3",  // negative
		"gainoffset:probes=2.5", // non-integer
		"gainoffset:frobs=3",    // unknown parameter
		"pertile:tilerows=0",    // below minimum
		"gainoffset:probes",     // malformed pair
	} {
		if _, err := Parse(spec); err == nil {
			t.Fatalf("Parse(%q) accepted", spec)
		}
	}
}

func TestValidate(t *testing.T) {
	var zero Model
	if err := zero.Validate(); err == nil {
		t.Fatal("zero Model validated")
	}
	if err := mustParse(t, "gainoffset").Validate(); err != nil {
		t.Fatalf("parsed model invalid: %v", err)
	}
}

func TestNewTrialConsumesOneUint64(t *testing.T) {
	m := mustParse(t, "gainoffset")
	a, b := rng.New(42), rng.New(42)
	m.NewTrial(a)
	b.Uint64()
	if a.Uint64() != b.Uint64() {
		t.Fatal("NewTrial consumed more (or less) than one Uint64")
	}
}

// TestFitRecoversAffine is the core contract: a purely systematic affine
// degradation (per-column gain and offset) is undone exactly, because the
// least squares sees noiseless affine data.
func TestFitRecoversAffine(t *testing.T) {
	const rows, cols = 6, 9
	m := mustParse(t, "gainoffset:probes=4")
	c := m.NewTrial(rng.New(7))
	desired := make([]float64, rows*cols)
	degraded := make([]float64, rows*cols)
	for o := 0; o < rows; o++ {
		gain := 1 + 0.05*float64(o)
		off := 0.01 * float64(o)
		for i := 0; i < cols; i++ {
			w := math.Sin(float64(o*cols + i)) // varied, nonzero spread per row
			desired[o*cols+i] = w
			degraded[o*cols+i] = gain*w + off
		}
	}
	corr := c.Fit(0, desired, degraded, rows, cols)
	for off := range desired {
		got := corr.Apply(off, degraded[off])
		if math.Abs(got-desired[off]) > 1e-9 {
			t.Fatalf("offset %d: Apply = %g, want %g", off, got, desired[off])
		}
	}
}

// TestFitPertileRecoversAffine is the same contract at tile granularity: a
// degradation constant within each tile is undone exactly.
func TestFitPertileRecoversAffine(t *testing.T) {
	const rows, cols = 8, 10
	m := mustParse(t, "pertile:probes=5,tilerows=4,tilecols=4")
	c := m.NewTrial(rng.New(11))
	desired := make([]float64, rows*cols)
	degraded := make([]float64, rows*cols)
	var probe Correction
	probe = Correction{cols: cols, tileRows: 4, tileCols: 4}
	for off := range desired {
		g := probe.group(off)
		gain := 1 + 0.1*float64(g)
		bias := 0.02 * float64(g)
		w := math.Cos(float64(3 * off))
		desired[off] = w
		degraded[off] = gain*w + bias
	}
	corr := c.Fit(0, desired, degraded, rows, cols)
	for off := range desired {
		got := corr.Apply(off, degraded[off])
		if math.Abs(got-desired[off]) > 1e-9 {
			t.Fatalf("offset %d: Apply = %g, want %g", off, got, desired[off])
		}
	}
}

// TestFitPure pins determinism: the same (trial key, param, data) fit twice
// gives bit-identical corrections, and a different param probes differently.
func TestFitPure(t *testing.T) {
	const rows, cols = 4, 32
	m := mustParse(t, "gainoffset:probes=3")
	c := m.NewTrial(rng.New(99))
	desired := make([]float64, rows*cols)
	degraded := make([]float64, rows*cols)
	for i := range desired {
		desired[i] = math.Sin(float64(i))
		degraded[i] = 1.1*desired[i] + 0.02 + 0.3*math.Sin(float64(7*i)) // non-affine residual
	}
	a := c.Fit(3, desired, degraded, rows, cols)
	b := c.Fit(3, desired, degraded, rows, cols)
	for off := range desired {
		if a.Apply(off, degraded[off]) != b.Apply(off, degraded[off]) {
			t.Fatalf("Fit not pure at offset %d", off)
		}
	}
	pa := probeColumns(probeKey(42, 0), cols, 3)
	pb := probeColumns(probeKey(42, 1), cols, 3)
	same := len(pa) == len(pb)
	if same {
		for i := range pa {
			if pa[i] != pb[i] {
				same = false
			}
		}
	}
	if same {
		t.Fatalf("params 0 and 1 probe identical columns %v — key mixing is broken", pa)
	}
}

func TestFitShapePanics(t *testing.T) {
	m := mustParse(t, "gainoffset")
	c := m.NewTrial(rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Fit accepted mismatched shapes")
		}
	}()
	c.Fit(0, make([]float64, 6), make([]float64, 4), 2, 3)
}

func TestProbeColumns(t *testing.T) {
	for _, tc := range []struct{ cols, budget int }{
		{10, 3}, {10, 10}, {10, 99}, {1, 8}, {257, 8},
	} {
		got := probeColumns(probeKey(5, 0), tc.cols, tc.budget)
		want := tc.budget
		if want > tc.cols {
			want = tc.cols
		}
		if len(got) != want {
			t.Fatalf("probeColumns(%d, %d) returned %d columns", tc.cols, tc.budget, len(got))
		}
		for i, col := range got {
			if col < 0 || col >= tc.cols {
				t.Fatalf("probe column %d out of range [0,%d)", col, tc.cols)
			}
			if i > 0 && got[i-1] >= col {
				t.Fatalf("probe columns not strictly ascending: %v", got)
			}
		}
	}
}

func TestSolveAffineDegenerate(t *testing.T) {
	// Empty group → identity.
	if g, o := solveAffine(0, 0, 0, 0, 0, 0); g != 1 || o != 0 {
		t.Fatalf("empty group solved to (%g, %g), want identity", g, o)
	}
	// Single sample → pure offset (mean error).
	if g, o := solveAffine(1, 2, 3, 4, 6, 9); g != 1 || o != 1 {
		t.Fatalf("single sample solved to (%g, %g), want (1, 1)", g, o)
	}
	// No spread (two equal x) → pure offset.
	// x = {2, 2}, y = {3, 5}: sy-sx = 4, n = 2 → offset 2.
	if g, o := solveAffine(2, 4, 8, 8, 16, 34); g != 1 || o != 2 {
		t.Fatalf("no-spread group solved to (%g, %g), want (1, 2)", g, o)
	}
}

// An exactly affine degradation keeps its full inverse (zero residual, no
// shrinkage); a statistically insignificant fit must collapse to the
// identity rather than inject coherent estimation noise; and a strongly
// systematic degradation survives the shrinkage nearly intact.
func TestSolveAffineShrinkage(t *testing.T) {
	// desired = 2·degraded + 1, i.e. degraded = 0.5·desired − 0.5, exactly:
	// the full inverse (gain 2, offset 1) survives.
	g, o := solveAffine(3, 6, 15, 14, 34, 83)
	if math.Abs(g-2) > 1e-12 || math.Abs(o-1) > 1e-12 {
		t.Fatalf("exact affine solved to (%g, %g), want (2, 1)", g, o)
	}
	// degraded = {-1, 0, 1}, desired = {5, 5, 5}: zero spread in the
	// targets — the exact flat fit maps every read to the constant.
	g, o = solveAffine(3, 0, 15, 2, 0, 75)
	if g != 0 || o != 5 {
		t.Fatalf("flat relation solved to (%g, %g), want (0, 5)", g, o)
	}
	// degraded = {0, 1, 2, 3}, desired = {1, 3, 1, 3}: the in-sample fit
	// (Â = 0.5) is within one standard error of the identity, so the
	// positive-part shrinkage must drop the correction entirely.
	g, o = solveAffine(4, 6, 8, 14, 14, 20)
	if g != 1 || o != 0 {
		t.Fatalf("insignificant relation solved to (%g, %g), want identity", g, o)
	}
	// degraded ≈ 0.5·desired with small residuals (desired {0, 2, 4, 6},
	// degraded {0.1, 0.9, 2.1, 2.9}): the attenuation is many standard
	// errors from 1, so the inverse gain ≈ 2 survives; the small fitted
	// offset is insignificant and must vanish.
	g, o = solveAffine(4, 6, 12, 13.64, 27.6, 56)
	if g < 1.9 || g > 2.2 {
		t.Fatalf("systematic attenuation gain %g, want ≈ 2", g)
	}
	if o != 0 {
		t.Fatalf("insignificant offset %g survived shrinkage", o)
	}
}

func TestFromFlagConventions(t *testing.T) {
	if _, ok, _, err := FromFlag(""); err != nil || ok {
		t.Fatalf("FromFlag(\"\") = ok %v err %v, want disabled", ok, err)
	}
	if _, ok, _, err := FromFlag("none"); err != nil || ok {
		t.Fatalf("FromFlag(\"none\") = ok %v err %v, want disabled", ok, err)
	}
	_, _, listing, err := FromFlag("list")
	if err != nil || listing == "" {
		t.Fatalf("FromFlag(\"list\") = listing %q err %v", listing, err)
	}
	for _, want := range []string{"gainoffset", "pertile"} {
		if !strings.Contains(listing, want) {
			t.Fatalf("listing %q misses %q", listing, want)
		}
	}
	m, ok, _, err := FromFlag("gainoffset:probes=16")
	if err != nil || !ok {
		t.Fatalf("FromFlag(spec) = ok %v err %v", ok, err)
	}
	if m.Probes() != 16 {
		t.Fatalf("Probes() = %d, want 16", m.Probes())
	}
}
