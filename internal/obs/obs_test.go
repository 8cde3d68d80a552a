package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Fatal("re-registration did not return the existing counter")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 106.5 {
		t.Fatalf("sum = %g, want 106.5", got)
	}
	// Median rank 2.5 lands in the (1,2] bucket (cumulative 1 → 3).
	q := h.Quantile(0.5)
	if q < 1 || q > 2 {
		t.Fatalf("median = %g, want within (1,2]", q)
	}
	// The +Inf bucket clamps to the largest finite bound.
	if got := h.Quantile(1); got != 4 {
		t.Fatalf("q1 = %g, want 4 (clamped)", got)
	}
	if got := NewHistogram(nil).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram([]float64{0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
	if got := h.Sum(); got != 2000 {
		t.Fatalf("sum = %g, want 2000", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("swim_jobs_total", "jobs").Add(3)
	r.Gauge("swim_depth", "depth").Set(2)
	r.GaugeFunc("swim_live", "live", func() float64 { return 1.5 })
	h := r.Histogram("swim_lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(5)
	v := r.HistogramVec("swim_plan_seconds", "plan latency", "backend", []float64{1})
	v.With(`sca"lar`).Observe(0.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wants := []string{
		"# HELP swim_jobs_total jobs",
		"# TYPE swim_jobs_total counter",
		"swim_jobs_total 3",
		"# TYPE swim_depth gauge",
		"swim_depth 2",
		"swim_live 1.5",
		"# TYPE swim_lat_seconds histogram",
		`swim_lat_seconds_bucket{le="0.1"} 1`,
		`swim_lat_seconds_bucket{le="1"} 1`,
		`swim_lat_seconds_bucket{le="+Inf"} 2`,
		"swim_lat_seconds_sum 5.05",
		"swim_lat_seconds_count 2",
		`swim_plan_seconds_bucket{backend="sca\"lar",le="1"} 1`,
		`swim_plan_seconds_count{backend="sca\"lar"} 1`,
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	// Counters must precede their TYPE line's next family — spot-check order
	// stability: registration order is exposition order.
	if strings.Index(out, "swim_jobs_total 3") > strings.Index(out, "swim_depth 2") {
		t.Error("exposition does not follow registration order")
	}
}

func TestStageSpanNoOp(t *testing.T) {
	var nilStage *Stage
	nilStage.Start().End() // must not panic
	(&Stage{}).Start().End()
	Span{}.End()

	h := NewHistogram(nil)
	st := &Stage{H: h}
	st.Start().End()
	if got := h.Count(); got != 1 {
		t.Fatalf("stage recorded %d spans, want 1", got)
	}
}

func TestZeroAllocInstruments(t *testing.T) {
	var c Counter
	var g Gauge
	h := NewHistogram(nil)
	vec := &HistogramVec{label: "l", bounds: []float64{1}, children: map[string]*Histogram{}}
	vec.With("x") // create the child outside the measured loop
	st := &Stage{H: h}
	var nilStage *Stage

	checks := []struct {
		name string
		fn   func()
	}{
		{"counter-inc", func() { c.Inc() }},
		{"gauge-set", func() { g.Set(1) }},
		{"histogram-observe", func() { h.Observe(0.1) }},
		{"vec-with-observe", func() { vec.With("x").Observe(0.1) }},
		{"stage-span", func() { st.Start().End() }},
		{"nil-stage", func() { nilStage.Start().End() }},
	}
	for _, chk := range checks {
		if allocs := testing.AllocsPerRun(200, chk.fn); allocs != 0 {
			t.Errorf("%s: %g allocs/op, want 0", chk.name, allocs)
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.001)
	}
}
