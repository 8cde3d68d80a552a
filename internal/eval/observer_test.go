package eval_test

import (
	"sync"
	"testing"

	"swim/internal/eval"
	"swim/internal/kernel"
	"swim/internal/models"
	"swim/internal/obs"
	"swim/internal/rng"
)

// recordingObserver collects ObservePlan calls for assertions.
type recordingObserver struct {
	mu       sync.Mutex
	backends []string
	seconds  []float64
}

func (o *recordingObserver) ObservePlan(backend string, seconds float64) {
	o.mu.Lock()
	o.backends = append(o.backends, backend)
	o.seconds = append(o.seconds, seconds)
	o.mu.Unlock()
}

// TestPlanObserverReportsBatches: with an observer installed, CountCorrect
// reports one latency sample per executed batch labeled with the backend (an
// evaluator built without one runs, and is labeled, kernel.Default()), and
// the count itself is unchanged by instrumentation.
func TestPlanObserverReportsBatches(t *testing.T) {
	r := rng.New(17)
	net := models.LeNet(10, 4, r)
	const n = 20
	x := randomInput(n, []int{1, 28, 28}, r)
	y := make([]int, n)
	for i := range y {
		y[i] = r.Intn(10)
	}
	ev := eval.NewEvaluator(net, nil)
	plain, err := ev.CountCorrect(x, y, 8)
	if err != nil {
		t.Fatal(err)
	}

	rec := &recordingObserver{}
	eval.SetPlanObserver(rec)
	defer eval.SetPlanObserver(nil)
	observed, err := ev.CountCorrect(x, y, 8)
	if err != nil {
		t.Fatal(err)
	}
	if observed != plain {
		t.Fatalf("observed count %d != uninstrumented count %d", observed, plain)
	}
	if len(rec.backends) != 3 { // batches of 8, 8, 4
		t.Fatalf("observer saw %d batches, want 3", len(rec.backends))
	}
	want := kernel.Default().Name()
	for i, b := range rec.backends {
		if b != want {
			t.Fatalf("batch %d labeled backend %q, want %s", i, b, want)
		}
		if rec.seconds[i] < 0 {
			t.Fatalf("batch %d has negative latency %v", i, rec.seconds[i])
		}
	}
}

// histObserver is the production-shaped observer: an obs.HistogramVec keyed
// by backend, exactly as internal/serve wires it.
type histObserver struct{ vec *obs.HistogramVec }

func (o histObserver) ObservePlan(backend string, seconds float64) {
	o.vec.With(backend).Observe(seconds)
}

// TestPlanObserverZeroAlloc pins the acceptance criterion: the instrumented
// eval hot path stays at 0 allocs/op with an obs-backed observer installed.
func TestPlanObserverZeroAlloc(t *testing.T) {
	r := rng.New(5)
	net := models.LeNet(10, 4, r)
	const n = 20
	x := randomInput(n, []int{1, 28, 28}, r)
	y := make([]int, n)
	for i := range y {
		y[i] = r.Intn(10)
	}
	reg := obs.NewRegistry()
	eval.SetPlanObserver(histObserver{vec: reg.HistogramVec("swim_eval_plan_seconds", "", "backend", nil)})
	defer eval.SetPlanObserver(nil)

	ev := eval.NewEvaluator(net, nil)
	if _, err := ev.Accuracy(x, y, 8); err != nil { // warm plans + vec child
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := ev.Accuracy(x, y, 8); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("instrumented Accuracy allocates %v times per call, want 0", allocs)
	}
}
