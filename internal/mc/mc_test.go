package mc

import (
	"context"
	"errors"
	"math"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"swim/internal/rng"
	"swim/internal/stat"
)

// series runs the whole trial range [0, trials) and folds its rows: the
// path every single-node series run takes.
func series(ctx context.Context, seed uint64, trials, points, workers int, gate Gate, f func(r *rng.Source) []float64) ([]*stat.Welford, error) {
	rows, err := RunSeriesShard(ctx, seed, trials, 0, trials, points, workers, gate, f)
	if err != nil {
		return nil, err
	}
	return FoldSeriesRows(points, rows)
}

// scalar runs a one-value trial body as a one-point series.
func scalar(t *testing.T, seed uint64, trials, workers int, f func(r *rng.Source) float64) *stat.Welford {
	t.Helper()
	agg, err := series(context.Background(), seed, trials, 1, workers, nil, func(r *rng.Source) []float64 {
		return []float64{f(r)}
	})
	if err != nil {
		t.Fatal(err)
	}
	return agg[0]
}

func TestTrialsDefaultAndOverride(t *testing.T) {
	os.Unsetenv("SWIM_MC")
	if Trials(7) != 7 {
		t.Fatal("default not honoured")
	}
	os.Setenv("SWIM_MC", "42")
	defer os.Unsetenv("SWIM_MC")
	if Trials(7) != 42 {
		t.Fatal("override not honoured")
	}
	os.Setenv("SWIM_MC", "bogus")
	if Trials(7) != 7 {
		t.Fatal("bogus override should fall back to default")
	}
}

func TestEvalSize(t *testing.T) {
	os.Unsetenv("SWIM_EVAL")
	if EvalSize(300) != 300 {
		t.Fatal("default not honoured")
	}
	os.Setenv("SWIM_EVAL", "123")
	defer os.Unsetenv("SWIM_EVAL")
	if EvalSize(300) != 123 {
		t.Fatal("override not honoured")
	}
}

func TestFast(t *testing.T) {
	os.Unsetenv("SWIM_FAST")
	if Fast() {
		t.Fatal("fast without env")
	}
	os.Setenv("SWIM_FAST", "1")
	defer os.Unsetenv("SWIM_FAST")
	if !Fast() {
		t.Fatal("fast not detected")
	}
}

func TestWorkersEnvAndOverride(t *testing.T) {
	os.Unsetenv("SWIM_WORKERS")
	SetWorkers(0)
	if Workers() != runtime.NumCPU() {
		t.Fatalf("default workers = %d, want NumCPU %d", Workers(), runtime.NumCPU())
	}
	t.Setenv("SWIM_WORKERS", "3")
	if Workers() != 3 {
		t.Fatalf("SWIM_WORKERS not honoured: %d", Workers())
	}
	SetWorkers(5)
	if Workers() != 5 {
		t.Fatalf("SetWorkers not honoured: %d", Workers())
	}
	SetWorkers(0)
	if Workers() != 3 {
		t.Fatal("SetWorkers(0) should restore the environment default")
	}
	t.Setenv("SWIM_WORKERS", "bogus")
	if Workers() != runtime.NumCPU() {
		t.Fatal("bogus SWIM_WORKERS should fall back to NumCPU")
	}
}

func TestRunAggregates(t *testing.T) {
	w := scalar(t, 1, 2000, 0, func(r *rng.Source) float64 { return r.Gauss(5, 1) })
	if w.N() != 2000 {
		t.Fatalf("n = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 0.1 || math.Abs(w.Std()-1) > 0.1 {
		t.Fatalf("mean=%.3f std=%.3f", w.Mean(), w.Std())
	}
}

func TestRunDeterministicInSeed(t *testing.T) {
	f := func(r *rng.Source) float64 { return r.Float64() }
	a := scalar(t, 9, 50, 0, f)
	b := scalar(t, 9, 50, 0, f)
	if a.Mean() != b.Mean() {
		t.Fatal("same seed gave different aggregate")
	}
	c := scalar(t, 10, 50, 0, f)
	if a.Mean() == c.Mean() {
		t.Fatal("different seed gave identical aggregate")
	}
}

// TestRunWorkerCountInvariance is the engine's core contract: the mean and
// std are bit-for-bit identical for every worker count, including the serial
// path (workers = 1).
func TestRunWorkerCountInvariance(t *testing.T) {
	f := func(r *rng.Source) float64 {
		s := 0.0
		for i := 0; i < 50; i++ {
			s += r.Norm()
		}
		return s
	}
	serial := scalar(t, 11, 300, 1, f)
	for _, workers := range []int{2, 3, 8, runtime.NumCPU()} {
		w := scalar(t, 11, 300, workers, f)
		if w.Mean() != serial.Mean() || w.Std() != serial.Std() || w.N() != serial.N() {
			t.Fatalf("workers=%d: mean/std (%v, %v) != serial (%v, %v)",
				workers, w.Mean(), w.Std(), serial.Mean(), serial.Std())
		}
	}
}

// TestRunHonoursSWIMWorkers pins the acceptance criterion: SWIM_WORKERS=4
// as the default worker count must match the serial path bit for bit.
func TestRunHonoursSWIMWorkers(t *testing.T) {
	f := func(r *rng.Source) float64 { return r.Gauss(0, 1) }
	t.Setenv("SWIM_WORKERS", "1")
	serial := scalar(t, 7, 257, 0, f)
	t.Setenv("SWIM_WORKERS", "4")
	parallel := scalar(t, 7, 257, 0, f)
	if serial.Mean() != parallel.Mean() || serial.Std() != parallel.Std() {
		t.Fatalf("SWIM_WORKERS=4 (%v, %v) != serial (%v, %v)",
			parallel.Mean(), parallel.Std(), serial.Mean(), serial.Std())
	}
}

func TestRunSeries(t *testing.T) {
	agg, err := series(context.Background(), 3, 100, 3, 0, nil, func(r *rng.Source) []float64 {
		return []float64{1, r.Float64(), 10}
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg[0].Mean() != 1 || agg[2].Mean() != 10 {
		t.Fatal("constant series points wrong")
	}
	if agg[1].Mean() < 0.3 || agg[1].Mean() > 0.7 {
		t.Fatalf("uniform point mean = %v", agg[1].Mean())
	}
	if agg[0].N() != 100 {
		t.Fatalf("n = %d", agg[0].N())
	}
}

func TestRunSeriesWorkerCountInvariance(t *testing.T) {
	f := func(r *rng.Source) []float64 {
		return []float64{r.Float64(), r.Gauss(2, 3), r.Norm() * r.Norm()}
	}
	serial, err := series(context.Background(), 21, 211, 3, 1, nil, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, runtime.NumCPU()} {
		agg, err := series(context.Background(), 21, 211, 3, workers, nil, f)
		if err != nil {
			t.Fatal(err)
		}
		for i := range agg {
			if agg[i].Mean() != serial[i].Mean() || agg[i].Std() != serial[i].Std() {
				t.Fatalf("workers=%d point %d: (%v, %v) != serial (%v, %v)",
					workers, i, agg[i].Mean(), agg[i].Std(), serial[i].Mean(), serial[i].Std())
			}
		}
	}
}

func TestRunSeriesLengthMismatchError(t *testing.T) {
	_, err := RunSeriesShard(context.Background(), 1, 8, 0, 8, 3, 0, nil, func(r *rng.Source) []float64 { return []float64{1} })
	if err == nil {
		t.Fatal("length mismatch not reported")
	}
	want := "returned 1 series values, want 3"
	if got := err.Error(); !strings.Contains(got, want) {
		t.Fatalf("error %q does not describe the mismatch (want substring %q)", got, want)
	}
}

func TestRunSeriesCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	_, err := RunSeriesShard(ctx, 1, 10000, 0, 10000, 1, 2, nil, func(r *rng.Source) []float64 {
		if calls.Add(1) == 5 {
			cancel()
		}
		return []float64{r.Float64()}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if n := calls.Load(); n >= 10000 {
		t.Fatalf("cancellation did not stop the run (%d trials executed)", n)
	}
}

func TestTrialPanicBecomesError(t *testing.T) {
	// Trials execute on worker goroutines, where an unrecovered panic would
	// kill the process; the engine must convert it into a returned error.
	_, err := RunSeriesShard(context.Background(), 1, 20, 0, 20, 1, 2, nil, func(r *rng.Source) []float64 {
		panic("device model exploded")
	})
	if err == nil || !strings.Contains(err.Error(), "device model exploded") {
		t.Fatalf("trial panic not converted to a descriptive error: %v", err)
	}
}

func TestRunSeriesCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSeriesShard(ctx, 1, 10, 0, 10, 1, 2, nil, func(r *rng.Source) []float64 {
		return []float64{1}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run returned %v", err)
	}
}

func TestRunZeroTrials(t *testing.T) {
	w := scalar(t, 1, 0, 0, func(r *rng.Source) float64 { t.Fatal("trial ran"); return 0 })
	if w.N() != 0 || w.Mean() != 0 {
		t.Fatalf("zero-trial aggregate: n=%d mean=%v", w.N(), w.Mean())
	}
}

func TestMapOrderAndDeterminism(t *testing.T) {
	f := func(i int, r *rng.Source) float64 { return float64(i) + r.Float64() }
	serial, err := MapCtx(context.Background(), 5, 100, 1, f)
	if err != nil {
		t.Fatal(err)
	}
	// Values are in index order: integer part recovers the index.
	for i, v := range serial {
		if int(v) != i {
			t.Fatalf("out[%d] = %v not in index order", i, v)
		}
	}
	// And each item's stream matches a direct SplitN derivation.
	streams := rng.New(5).SplitN(100)
	for i, v := range serial {
		if want := float64(i) + streams[i].Float64(); v != want {
			t.Fatalf("item %d = %v, want %v from pre-split stream", i, v, want)
		}
	}
	parallel, err := MapCtx(context.Background(), 5, 100, runtime.NumCPU(), f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("item %d differs across worker counts", i)
		}
	}
}

func TestMapGenericType(t *testing.T) {
	words, err := MapCtx(context.Background(), 1, 3, 0, func(i int, r *rng.Source) string {
		return string(rune('a' + i))
	})
	if err != nil {
		t.Fatal(err)
	}
	if words[0] != "a" || words[1] != "b" || words[2] != "c" {
		t.Fatalf("words = %v", words)
	}
}

// flappyGate alternates its limit between 1 and max on every Limit() call,
// exercising worker parking/waking mid-run.
type flappyGate struct {
	max   int
	calls atomic.Int64
	ch    chan struct{}
}

func newFlappyGate(max int) *flappyGate {
	g := &flappyGate{max: max, ch: make(chan struct{})}
	close(g.ch) // always "changed": parked workers re-check immediately
	return g
}

func (g *flappyGate) Limit() (int, <-chan struct{}) {
	if g.calls.Add(1)%2 == 0 {
		return 1, g.ch
	}
	return g.max, g.ch
}

// TestGateInvariance pins the Gate contract: a run whose worker admission
// flaps arbitrarily yields bit-identical aggregates to the serial run.
func TestGateInvariance(t *testing.T) {
	f := func(r *rng.Source) []float64 {
		return []float64{r.Norm(), r.Float64()}
	}
	serial, err := series(context.Background(), 77, 25, 2, 1, nil, f)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := series(context.Background(), 77, 25, 2, 4, newFlappyGate(4), f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Mean() != gated[i].Mean() || serial[i].Std() != gated[i].Std() {
			t.Fatalf("point %d: gated (%v, %v) != serial (%v, %v)",
				i, gated[i].Mean(), gated[i].Std(), serial[i].Mean(), serial[i].Std())
		}
	}
}

// fixedGate admits a constant number of workers and never signals a change.
type fixedGate struct {
	limit int
	ch    chan struct{}
}

func (g *fixedGate) Limit() (int, <-chan struct{}) { return g.limit, g.ch }

// TestGateSingleWorkerProgress verifies a gate stuck at limit 1 still drains
// the whole run (the surplus workers park; the admitted one does all trials).
func TestGateSingleWorkerProgress(t *testing.T) {
	var ran atomic.Int64
	out, err := MapGate(context.Background(), 3, 12, 4, &fixedGate{limit: 1, ch: make(chan struct{})},
		func(i int, r *rng.Source) int {
			ran.Add(1)
			return i * i
		})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 12 || len(out) != 12 || out[5] != 25 {
		t.Fatalf("gated map incomplete: ran=%d out=%v", ran.Load(), out)
	}
}

// TestGateCancellation: a gated run cancelled mid-flight (one worker parked,
// one mid-trial) must tear down cleanly and return the context error.
func TestGateCancellation(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := MapGate(ctx, 5, 8, 2, &fixedGate{limit: 1, ch: make(chan struct{})},
			func(i int, r *rng.Source) int {
				if once.CompareAndSwap(false, true) {
					close(started)
					<-release
				}
				return i
			})
		done <- err
	}()
	<-started
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
