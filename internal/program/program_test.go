package program

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"swim/internal/data"
	"swim/internal/device"
	"swim/internal/models"
	"swim/internal/nn"
	"swim/internal/rng"
	"swim/internal/swim"
	"swim/internal/train"
)

// testWorkload is a tiny trained LeNet shared by every test in the package
// (training dominates test time; the pipeline never mutates the master).
type testWorkload struct {
	net     *nn.Network
	ds      *data.Dataset
	hess    []float64
	weights []float64
	sens    *Sensitivity // hess and weights
	clean   float64
}

var (
	wlOnce sync.Once
	wl     testWorkload
)

func workload(t *testing.T) *testWorkload {
	t.Helper()
	wlOnce.Do(func() {
		ds := data.MNISTLike(300, 150, 1)
		r := rng.New(2)
		net := models.LeNet(10, 4, r)
		cfg := train.DefaultConfig()
		cfg.Epochs = 2
		cfg.QATBits = 4
		train.SGD(net, ds, cfg, r)
		cx, cy := data.Subset(ds.TrainX, ds.TrainY, 128)
		wl = testWorkload{
			net:     net,
			ds:      ds,
			hess:    swim.Sensitivity(net, cx, cy, 64),
			weights: swim.FlatWeights(net),
			clean:   train.Evaluate(net, ds.TestX, ds.TestY, 64),
		}
		var err error
		if wl.sens, err = NewSensitivity(wl.hess, wl.weights); err != nil {
			panic(err)
		}
	})
	return &wl
}

func (w *testWorkload) options() []Option {
	return []Option{
		WithDevice(device.Default(4, 1.0)),
		WithEval(w.ds.TestX, w.ds.TestY),
		WithSensitivity(w.sens),
		WithTraining(w.ds.TrainX, w.ds.TrainY),
	}
}

func mustLookup(t *testing.T, name string) Policy {
	t.Helper()
	p, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// --- registry ---------------------------------------------------------------

func TestRegistryBuiltinsResolvable(t *testing.T) {
	for _, name := range []string{"swim", "magnitude", "random", "insitu", "noverify"} {
		p, err := Lookup(name)
		if err != nil {
			t.Fatalf("builtin %q: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("builtin %q reports name %q", name, p.Name())
		}
	}
	names := Names()
	for _, want := range []string{"swim", "magnitude", "random", "insitu", "noverify"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Names() = %v missing %q", names, want)
		}
	}
}

func TestRegistryDuplicateRegistration(t *testing.T) {
	p := SelectorPolicy("test-dup", func(env *Env) (swim.Selector, error) {
		return swim.NewMagnitudeSelector(env.Weights), nil
	})
	if err := Register(p); err != nil {
		t.Fatalf("first registration: %v", err)
	}
	if err := Register(p); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := Register(SelectorPolicy("swim", nil)); err == nil {
		t.Fatal("shadowing a builtin accepted")
	}
	if err := Register(nil); err == nil {
		t.Fatal("nil policy accepted")
	}
}

// --- option and budget validation -------------------------------------------

func TestOptionValidation(t *testing.T) {
	w := workload(t)
	pol := mustLookup(t, "swim")
	grid := GridBudget(0, 0.5)

	cases := []struct {
		name string
		opts []Option
	}{
		{"negative granularity", append(w.options(), WithGranularity(-0.1))},
		{"granularity above one", append(w.options(), WithGranularity(1.5))},
		{"nil calibration set", append(w.options(), WithCalibration(nil, nil))},
		{"empty calibration labels", append(w.options(), WithCalibration(w.ds.TrainX, nil))},
		{"zero workers", append(w.options(), WithWorkers(0))},
		{"negative workers", append(w.options(), WithWorkers(-4))},
		{"zero trials", append(w.options(), WithTrials(0))},
		{"zero eval batch", append(w.options(), WithEvalBatch(0))},
		{"nil eval set", []Option{WithDevice(device.Default(4, 1.0))}},
		{"no device", []Option{WithEval(w.ds.TestX, w.ds.TestY)}},
		{"nil worker gate", append(w.options(), WithWorkerGate(nil))},
		{"empty cycle table", append(w.options(), WithCycleTable(nil))},
		{"nil sensitivity", append(w.options(), WithSensitivity(nil))},
	}
	for _, tc := range cases {
		if _, err := New(w.net, pol, grid, tc.opts...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	for name, in := range map[string][2][]float64{
		"empty sensitivity": {nil, w.weights},
		"empty weights":     {w.hess, nil},
		"length mismatch":   {w.hess, w.weights[1:]},
		"NaN sensitivity":   {poison(w.hess, math.NaN()), w.weights},
		"infinite weight":   {w.hess, poison(w.weights, math.Inf(-1))},
	} {
		if _, err := NewSensitivity(in[0], in[1]); err == nil {
			t.Errorf("NewSensitivity, %s: accepted", name)
		}
	}

	if _, err := New(nil, pol, grid, w.options()...); err == nil {
		t.Error("nil network accepted")
	}
	// Weights and sensitivities computed from a network are checked too.
	broken := w.net.Clone()
	broken.MappedParams()[1].Data.Data[3] = math.NaN()
	cx, cy := data.Subset(w.ds.TrainX, w.ds.TrainY, 64)
	if _, err := New(broken, pol, grid, WithDevice(device.Default(4, 1.0)),
		WithEval(w.ds.TestX, w.ds.TestY), WithCalibration(cx, cy)); err == nil {
		t.Error("network with a NaN weight accepted")
	}
	if _, err := New(w.net, nil, grid, w.options()...); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := New(w.net, pol, nil, w.options()...); err == nil {
		t.Error("nil budget accepted")
	}
}

// poison returns a copy of v with one value replaced by bad.
func poison(v []float64, bad float64) []float64 {
	out := append([]float64(nil), v...)
	out[len(out)/2] = bad
	return out
}

func TestBudgetValidation(t *testing.T) {
	w := workload(t)
	pol := mustLookup(t, "swim")
	for name, b := range map[string]Budget{
		"empty grid":          GridBudget(),
		"negative target":     GridBudget(-0.1),
		"decreasing grid":     GridBudget(0.5, 0.1),
		"NaN target":          GridBudget(math.NaN()),
		"NaN then decreasing": GridBudget(0.5, math.NaN(), 0.1),
		"+Inf target":         GridBudget(0.1, math.Inf(1)),
		"-Inf target":         GridBudget(math.Inf(-1)),
		"negative MaxNWC":     DropTarget{BaseAccuracy: 90, MaxDrop: 1, MaxNWC: -1},
		"NaN BaseAccuracy":    DropTarget{BaseAccuracy: math.NaN(), MaxDrop: 1},
		"+Inf BaseAccuracy":   DropTarget{BaseAccuracy: math.Inf(1), MaxDrop: 1},
		"NaN MaxDrop":         DropTarget{BaseAccuracy: 90, MaxDrop: math.NaN()},
		"-Inf MaxDrop":        DropTarget{BaseAccuracy: 90, MaxDrop: math.Inf(-1)},
		"NaN MaxNWC":          DropTarget{BaseAccuracy: 90, MaxDrop: 1, MaxNWC: math.NaN()},
		"+Inf MaxNWC":         DropTarget{BaseAccuracy: 90, MaxDrop: 1, MaxNWC: math.Inf(1)},
	} {
		if _, err := New(w.net, pol, b, w.options()...); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRunSurfacesPolicyMisconfiguration(t *testing.T) {
	w := workload(t)
	// swim without sensitivities (no WithSensitivity, no WithCalibration)
	// must fail in Run with a descriptive error, not panic in a worker.
	p, err := New(w.net, mustLookup(t, "swim"), GridBudget(0.1),
		WithDevice(device.Default(4, 1.0)),
		WithEval(w.ds.TestX, w.ds.TestY),
		WithTrials(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "sensitivities") {
		t.Fatalf("missing-sensitivity run error = %v", err)
	}

	// insitu without a training set likewise.
	p, err = New(w.net, mustLookup(t, "insitu"), GridBudget(0.1),
		WithDevice(device.Default(4, 1.0)),
		WithEval(w.ds.TestX, w.ds.TestY),
		WithTrials(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "training set") {
		t.Fatalf("missing-training run error = %v", err)
	}
}

// --- budget-exhaustion sentinel ---------------------------------------------

func TestErrBudgetExhausted(t *testing.T) {
	w := workload(t)
	// An unreachable drop target (no accuracy can be within -1000 pp of
	// 200%) exhausts the order in every trial.
	p, err := New(w.net, mustLookup(t, "swim"), DropBudget(200, -1000),
		append(w.options(), WithGranularity(0.5), WithTrials(2), WithSeed(3))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted via errors.Is", err)
	}
	if res == nil || res.Achieved != 0 {
		t.Fatalf("exhausted run should still return the Result (achieved=%v)", res)
	}
	if len(res.Trace) < 2 {
		t.Fatalf("exhausted run recorded %d trace steps", len(res.Trace))
	}
	last := res.Trace[len(res.Trace)-1]
	if last.FractionVerified != 1 {
		t.Fatalf("order not fully spent: fraction %v", last.FractionVerified)
	}
}

// --- calibration path and eval batch ----------------------------------------

func TestCalibrationComputesSensitivities(t *testing.T) {
	w := workload(t)
	cx, cy := data.Subset(w.ds.TrainX, w.ds.TrainY, 128)
	// Pipeline computes hess itself from the calibration split with the
	// configured eval batch; with the same split and batch as the cached
	// workload, results must match the injected-sensitivity run exactly.
	run := func(opts ...Option) *Result {
		p, err := New(w.net, mustLookup(t, "swim"), GridBudget(0, 0.2),
			append(opts,
				WithDevice(device.Default(4, 1.0)),
				WithEval(w.ds.TestX, w.ds.TestY),
				WithSeed(5), WithTrials(2))...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	calibrated := run(WithCalibration(cx, cy), WithEvalBatch(64))
	injected := run(WithSensitivity(w.sens))
	for i := range injected.Points {
		if calibrated.Points[i].Accuracy.Mean() != injected.Points[i].Accuracy.Mean() {
			t.Fatalf("point %d: calibrated %.6f != injected %.6f", i,
				calibrated.Points[i].Accuracy.Mean(), injected.Points[i].Accuracy.Mean())
		}
	}
}
