package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"swim/internal/experiments"
	"swim/internal/mc"
)

// tiny runs every workload with one trial per cell and one set-up build.
var tiny = sizes{
	setups: 1, table1Trials: 1, table1Sigmas: []float64{experiments.SigmaTypical},
	algo1Trials: 2, coordTrials: 1, shapeTol: 100,
}

func TestMain(m *testing.M) {
	// Setup and meter children re-execute this test binary.
	if name := os.Getenv(setupEnv); name != "" {
		os.Exit(setupChild(name))
	}
	if os.Getenv(meterEnv) != "" {
		os.Exit(meterChild())
	}
	for k, v := range map[string]string{"SWIM_FAST": "1", "SWIM_EVAL": "32"} {
		if err := os.Setenv(k, v); err != nil {
			panic(err)
		}
	}
	mc.SetWorkers(workers)
	os.Exit(m.Run())
}

// TestWorkloadsSmoke runs every workload at tiny scale — one job per
// client, traced — through every output check, and checks the report's
// result lines.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			out := t.TempDir()
			cfg := config{seed: 3, seconds: 0, trace: true, sizes: tiny, out: out}
			rep, err := run(context.Background(), wl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range rep.checks {
				if c.err != nil {
					t.Errorf("check %s: %v", c.name, c.err)
				}
			}
			if rep.failed != 0 || rep.attempted < 1 {
				t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
			if wl.name == "serve-coord" && rep.attempted != workers {
				t.Errorf("serve-coord ran %d jobs, want one per client (%d)", rep.attempted, workers)
			}
			for _, d := range endToEnd {
				if v := rep.endToEnd[d.Name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.Name, v)
				}
			}
			if _, err := os.Stat(filepath.Join(out, "trace-"+wl.name+".json")); err != nil {
				t.Error(err)
			}
			for _, traced := range []bool{false, true} {
				rep.cfg.trace = traced
				var buf bytes.Buffer
				if err := rep.print(&buf); err != nil {
					t.Fatal(err)
				}
				checkResultLine(t, buf.String(), traced)
			}
		})
	}
}

// TestSetupChildren times a build in a child process of the test binary
// and checks it against this process's build.
func TestSetupChildren(t *testing.T) {
	wl, err := lookup("algo1-lenet")
	if err != nil {
		t.Fatal(err)
	}
	w, builds, err := setup(context.Background(), wl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil || len(builds) != 2 || !(builds[0].seconds() > 0) || !(builds[0].slowdown > 0) {
		t.Errorf("setup returned %v builds timed %+v", w != nil, builds)
	}
}

// checkResultLine checks the last printed line against the result-line
// contract: exactly correct, attempted, failed and metrics, with every
// end-to-end metric (or every per-layer one when traced) and its unit.
func checkResultLine(t *testing.T, out string, traced bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	if len(keys) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Fatalf("result line keys %v", keys)
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("result line has %d metrics, want %d", len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := line.Metrics[d.Name]
		if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) {
			t.Errorf("metric %s: %+v", d.Name, v)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the program's
// workload and metric tables.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var got struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []namedWhy  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(got.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", got.Command, got.Paths)
	}
	if got.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program default %d", got.RunSeconds, runSeconds)
	}
	var want []namedWhy
	for _, wl := range workloads {
		want = append(want, namedWhy{wl.name, wl.why})
	}
	if !reflect.DeepEqual(got.Workloads, want) {
		t.Errorf("workloads\n got %v\nwant %v", got.Workloads, want)
	}
	if !reflect.DeepEqual(got.EndToEnd, endToEnd) {
		t.Errorf("end_to_end\n got %v\nwant %v", got.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(got.PerLayer, perLayer) {
		t.Errorf("per_layer\n got %v\nwant %v", got.PerLayer, perLayer)
	}
	setupBound := 0.0
	for _, d := range endToEnd {
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > setupBound {
			t.Errorf("%s bound %g: want (0, 0.25] and at most setup_s's %g", d.Name, d.Bound, setupBound)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) on small samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}
