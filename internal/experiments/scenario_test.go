package experiments

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"swim/internal/device"
	"swim/internal/program"
)

func TestParseScenarios(t *testing.T) {
	scs, err := ParseScenarios("none;drift;drift:nu=0.05+stuckat:p=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 3 {
		t.Fatalf("scenarios = %d", len(scs))
	}
	if scs[0].Spec != "none" || len(scs[0].Models) != 0 {
		t.Fatalf("baseline scenario parsed as %+v", scs[0])
	}
	if len(scs[2].Models) != 2 {
		t.Fatalf("stacked scenario has %d models", len(scs[2].Models))
	}
	if _, err := ParseScenarios("drift;warp"); err == nil {
		t.Fatal("unknown model accepted")
	}
	if scs, err := ParseScenarios("  "); err != nil || scs != nil {
		t.Fatalf("blank list: %v, %v", scs, err)
	}
}

func TestScenarioSweepShapesAndDegradation(t *testing.T) {
	w := LeNetMNIST()
	scs, err := ParseScenarios("none;stuckat:p=0.3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScenarioConfig{
		NWCs:     []float64{0},
		Times:    []float64{0},
		Policies: []string{"noverify", "swim"},
		Trials:   2,
		Seed:     17,
	}
	results, err := ScenarioResults(context.Background(), w, SigmaHigh, scs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := SweepRows(results)
	if len(rows) != 4 { // 2 scenarios × 1 time × 2 policies
		t.Fatalf("rows = %d", len(rows))
	}
	cell := func(scenario, policy string) Cell {
		for _, row := range rows {
			if row.Scenario == scenario && row.Policy == policy {
				return row.Cells[0]
			}
		}
		t.Fatalf("missing row %s/%s", scenario, policy)
		return Cell{}
	}
	ideal := cell("none", "noverify")
	faulty := cell("stuckat:p=0.3,high=0.5", "noverify")
	if faulty.Mean >= ideal.Mean {
		t.Fatalf("30%% stuck devices did not degrade accuracy: %v >= %v", faulty.Mean, ideal.Mean)
	}

	var buf bytes.Buffer
	PrintScenarioSweep(&buf, w, SigmaHigh, cfg, rows)
	out := buf.String()
	for _, want := range []string{"scenario: none", "scenario: stuckat:p=0.3,high=0.5", "noverify", "swim"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	for in, want := range map[float64]string{0: "0", 90: "90s", 3600: "1h", 7200: "2h", 86400: "1d", 172800: "2d"} {
		if got := FormatDuration(in); got != want {
			t.Fatalf("FormatDuration(%v) = %q, want %q", in, got, want)
		}
	}
}

// The explicit SweepConfig scenario (the replacement for the removed
// process-global SetScenario) must reach every pipeline the sweep builds.
func TestSweepConfigScenario(t *testing.T) {
	w := LeNetMNIST()
	stuck, err := ParseScenario("stuckat:p=0.3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{NWCs: []float64{0}, Trials: 2, Seed: 18}
	clean, err := Sweep(w, SigmaHigh, "noverify", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = ReadScenario{Models: stuck.Models}
	degraded, err := Sweep(w, SigmaHigh, "noverify", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if degraded[0].Mean >= clean[0].Mean {
		t.Fatalf("config scenario had no effect: %v >= %v", degraded[0].Mean, clean[0].Mean)
	}
}

// TestCheckGrid pins the early grid check the CLIs and the daemon run
// before any workload is built: NWC targets by program's rule (finite,
// non-negative, non-decreasing; a NaN must not let a decreasing grid
// through), read times by program's rule (non-negative, not NaN), policies
// registered.
func TestCheckGrid(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name     string
		nwcs     []float64
		times    []float64
		policies []string
		ok       bool
	}{
		{"empty", nil, nil, nil, true},
		{"grid", []float64{0, 0.1, 0.1, 2}, []float64{0, 1e6}, []string{"swim", "insitu"}, true},
		{"negative target", []float64{-0.1}, nil, nil, false},
		{"decreasing", []float64{0.3, 0.1}, nil, nil, false},
		{"NaN", []float64{nan}, nil, nil, false},
		{"NaN then decreasing", []float64{0.5, nan, 0.1}, nil, nil, false},
		{"+Inf", []float64{0.1, inf}, nil, nil, false},
		{"-Inf", []float64{-inf}, nil, nil, false},
		{"negative read time", []float64{0.1}, []float64{-5}, nil, false},
		{"NaN read time", []float64{0.1}, []float64{0, nan}, nil, false},
		{"unknown policy", []float64{0.1}, nil, []string{"swim", "nosuch"}, false},
	} {
		err := CheckGrid(tc.nwcs, tc.times, tc.policies)
		if (err == nil) != tc.ok {
			t.Errorf("%s: CheckGrid(%v, %v, %v) = %v, want ok=%v", tc.name, tc.nwcs, tc.times, tc.policies, err, tc.ok)
		}
	}
}

// The one-trial shards of one job derive its cycle table once per
// workload, also when they arrive together; another seed or σ derives its
// own, and the memo keeps at most maxTables keys, dropping the oldest.
func TestScenarioShardsDeriveTableOncePerJob(t *testing.T) {
	w := tinyBuild("table-memo")
	var derived atomic.Int64
	derive := deriveTable
	deriveTable = func(dm device.Model, seed uint64) []float64 {
		derived.Add(1)
		return derive(dm, seed)
	}
	defer func() { deriveTable = derive }()
	want := func(n int64) {
		t.Helper()
		if got := derived.Load(); got != n {
			t.Fatalf("%d cycle tables derived, want %d", got, n)
		}
	}

	job := ScenarioConfig{
		NWCs: []float64{0, 0.1}, Times: []float64{0}, Policies: []string{"swim", "noverify"},
		Trials: 4, Seed: 21, EvalBatch: 32,
	}
	shards := func(cfg ScenarioConfig, sigma float64) {
		t.Helper()
		errs := make([]error, cfg.Trials)
		var wg sync.WaitGroup
		for lo := range cfg.Trials {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[lo] = ScenarioShards(context.Background(), w, sigma, nil, cfg, lo, lo+1, program.WithWorkers(1))
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	shards(job, SigmaTypical)
	want(1)
	shards(job, SigmaTypical)
	want(1)
	reseeded := job
	reseeded.Seed++
	shards(reseeded, SigmaTypical)
	want(2)
	shards(job, SigmaHigh)
	want(3)
	if got := w.cycleTable(SigmaHigh, job.Seed); !slices.Equal(got, derive(w.DeviceFor(SigmaHigh), job.Seed)) {
		t.Fatal("the memo's table differs from the one its key derives")
	}
	want(3)

	for seed := range uint64(maxTables) {
		w.cycleTable(SigmaMid, 1000+seed)
	}
	want(3 + maxTables)
	w.cycleTable(SigmaMid, 1000+maxTables-1) // still kept
	want(3 + maxTables)
	w.cycleTable(SigmaTypical, job.Seed) // dropped as the oldest
	want(4 + maxTables)
}
