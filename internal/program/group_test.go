package program

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"swim/internal/data"
	"swim/internal/device"
	"swim/internal/kernel"
	"swim/internal/mapping"
	"swim/internal/mc"
	"swim/internal/nn"
	"swim/internal/nonideal"
	"swim/internal/rng"
	"swim/internal/swim"
	"swim/internal/tensor"
)

// drawingSelector reads one value from its rng before ranking by
// magnitude: a selector without swim.FixedOrder that advances the trial
// stream, so its cell sets up alone.
type drawingSelector struct{ weights []float64 }

func (drawingSelector) Name() string { return "drawing" }

func (s drawingSelector) Order(r *rng.Source) []int {
	r.Uint64()
	return swim.NewMagnitudeSelector(s.weights).Order(nil)
}

// tailSelector ranks the last mapped weights first, so a cell's first
// writes reach only the classifier and its first changed measurement
// resumes from a late checkpoint.
type tailSelector struct{ n int }

func (tailSelector) Name() string { return "tail" }
func (tailSelector) FixedOrder()  {}

func (s tailSelector) Order(*rng.Source) []int {
	idx := make([]int, s.n)
	for i := range idx {
		idx[i] = s.n - 1 - i
	}
	return idx
}

// digitalPolicy write-verifies along magnitude order and, at every budget
// point, nudges a digital bias directly — a change made outside every
// mapping.Mapped write method.
type digitalPolicy struct{}

func (digitalPolicy) Name() string { return "digital" }

func (digitalPolicy) NewTrial(env *Env, _ *rng.Source) (Trial, error) {
	return &digitalTrial{order: swim.NewMagnitudeSelector(env.Weights).Order(nil)}, nil
}

type digitalTrial struct{ order []int }

func (t *digitalTrial) SpendTo(mp *mapping.Mapped, nwc float64, r *rng.Source) {
	swim.WriteVerifyToNWC(mp, t.order, nwc, r)
	for _, p := range mp.Net.Params() {
		if !p.Mapped {
			p.Data.Data[0] += 0.25 + nwc
			return
		}
	}
}

func (t *digitalTrial) Step(mp *mapping.Mapped, g float64, r *rng.Source) bool {
	t.SpendTo(mp, mp.NWC()+g, r)
	return false
}

// groupCellSpec is one cell of an equivalence case.
type groupCellSpec struct {
	policy   Policy
	grid     []float64
	readTime float64
	cost     bool
}

// groupCase is one group configuration: its cells plus the options every
// cell shares.
type groupCase struct {
	name   string
	cells  []groupCellSpec
	common []Option
}

func groupCases(t *testing.T) []groupCase {
	t.Helper()
	look := func(name string) Policy { return mustLookup(t, name) }
	drift, err := nonideal.ParseStack("drift:nu=0.1")
	if err != nil {
		t.Fatal(err)
	}
	drawing := SelectorPolicy("drawing", func(env *Env) (swim.Selector, error) {
		return drawingSelector{weights: env.Weights}, nil
	})
	tail := SelectorPolicy("tail", func(env *Env) (swim.Selector, error) {
		return tailSelector{n: len(env.Weights)}, nil
	})
	grid := []float64{0, 0.1, 0.3}
	cell := func(p Policy, g []float64) groupCellSpec { return groupCellSpec{policy: p, grid: g} }
	builtins := []groupCellSpec{
		cell(look("swim"), grid), cell(look("magnitude"), grid), cell(look("random"), grid),
		cell(look("insitu"), grid), cell(look("noverify"), grid),
	}
	spatial := device.DefaultSpatial(256, 256)
	return []groupCase{
		{name: "builtins", cells: builtins},
		{name: "builtins-spatial", cells: builtins, common: []Option{WithSpatial(spatial)}},
		{name: "serve-coord", cells: []groupCellSpec{cell(look("swim"), grid), cell(look("noverify"), grid)},
			common: []Option{WithNonidealities(drift...), WithReadTime(86400)}},
		{name: "custom", cells: []groupCellSpec{
			cell(tail, []float64{0, 0.02, 0.05}), cell(look("swim"), grid), cell(drawing, grid), cell(digitalPolicy{}, grid),
			cell(look("noverify"), grid), cell(digitalPolicy{}, []float64{0.05, 0.2}),
		}},
		{name: "grids-off-zero", cells: []groupCellSpec{
			cell(look("swim"), []float64{0.1, 0.2}), cell(look("insitu"), []float64{0.05}),
			cell(look("magnitude"), []float64{0, 0.2}), cell(look("noverify"), []float64{0.3}),
		}},
		{name: "drift-two-times-cost", cells: []groupCellSpec{
			{policy: look("swim"), grid: grid, cost: true},
			{policy: look("noverify"), grid: grid},
			{policy: look("magnitude"), grid: []float64{0, 0.2}, readTime: 3600, cost: true},
			{policy: look("insitu"), grid: grid, readTime: 3600},
			{policy: look("random"), grid: grid, readTime: 3600},
		}, common: []Option{WithNonidealities(drift...)}},
		{name: "drift-gainoffset-spatial", cells: []groupCellSpec{
			{policy: look("insitu"), grid: grid, readTime: 86400},
			{policy: digitalPolicy{}, grid: grid, readTime: 86400, cost: true},
			{policy: look("swim"), grid: grid, readTime: 86400},
			{policy: look("noverify"), grid: grid, readTime: 86400},
			{policy: look("swim"), grid: grid},
			{policy: drawing, grid: grid},
		}, common: []Option{
			WithNonidealities(drift...), WithCalibrationModel(gainoffsetModel(t, "gainoffset")), WithSpatial(spatial),
		}},
	}
}

// build returns the case's pipelines: its cells over the test workload at
// the given worker count, plus extra options.
func (c groupCase) build(t *testing.T, w *testWorkload, workers int, extra ...Option) Group {
	t.Helper()
	var g Group
	for _, cs := range c.cells {
		opts := append(w.options(), WithSeed(1000), WithTrials(3), WithWorkers(workers), WithReadTime(cs.readTime))
		opts = append(append(opts, c.common...), extra...)
		if cs.cost {
			opts = append(opts, WithCostModel(rramModel(t)))
		}
		p, err := New(w.net, cs.policy, GridBudget(cs.grid...), opts...)
		if err != nil {
			t.Fatal(err)
		}
		g = append(g, p)
	}
	return g
}

// groupKey fingerprints a Result bit for bit, cost report included.
func groupKey(res *Result) string { return resultKey(res) + costKey(res) }

// rowsKey fingerprints shard rows bit for bit.
func rowsKey(sh *Shard) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%d-%d|", sh.Policy, sh.Lo, sh.Hi)
	for _, row := range sh.Rows {
		fmt.Fprintf(&b, "%x;", row)
	}
	return b.String()
}

// Every cell of a group equals its own pipeline run alone, bit for bit —
// the Result and the Shard rows — across policy mixes (built-ins, a
// selector that reads its rng, a policy that edits a digital parameter
// directly), grids starting at 0 and not, two read times, drift with and
// without calibration, spatial fields, cost accounting, one and two
// workers, and random trial-range partitions merged by MergeShards.
func TestGroupCellsEqualPipelinesAlone(t *testing.T) {
	w := workload(t)
	ctx := context.Background()
	r := rand.New(rand.NewSource(24))
	for i, c := range groupCases(t) {
		workers := 1 + i%2 // alternate cases cover both worker counts
		t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
			g := c.build(t, w, workers)
			got, err := g.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			alone := make([]string, len(g))
			for k, p := range g {
				res, err := p.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				alone[k] = groupKey(res)
				if key := groupKey(got[k]); key != alone[k] {
					t.Fatalf("cell %d (%s) differs from its pipeline alone:\ngroup %s\nalone %s", k, res.Policy, key, alone[k])
				}
			}
			// A random partition of the trial space: each range's group
			// rows equal each pipeline's own, and the merge equals the run.
			bounds := []int{0, 1 + r.Intn(2), 3}
			parts := make([][]*Shard, len(g))
			for s := 0; s+1 < len(bounds); s++ {
				lo, hi := bounds[s], bounds[s+1]
				shards, err := c.build(t, w, workers, WithTrialRange(lo, hi)).RunShards(ctx)
				if err != nil {
					t.Fatal(err)
				}
				for k, p := range c.build(t, w, workers, WithTrialRange(lo, hi)) {
					own, err := p.RunShard(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if rowsKey(shards[k]) != rowsKey(own) {
						t.Fatalf("cell %d range [%d,%d): group rows differ from the pipeline's", k, lo, hi)
					}
					parts[k] = append(parts[k], shards[k])
				}
			}
			for k := range g {
				merged, err := MergeShards(parts[k])
				if err != nil {
					t.Fatal(err)
				}
				if groupKey(merged) != alone[k] {
					t.Fatalf("cell %d: merged shards %v differ from the run", k, bounds)
				}
			}
		})
	}
}

// A group refuses members that cannot share trials.
func TestGroupRejectsMismatchedMembers(t *testing.T) {
	w := workload(t)
	base := func(opts ...Option) *Pipeline {
		t.Helper()
		p, err := New(w.net, mustLookup(t, "swim"), GridBudget(0, 0.1),
			append(append(w.options(), WithSeed(3), WithTrials(2)), opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	drift, err := nonideal.ParseStack("drift:nu=0.1")
	if err != nil {
		t.Fatal(err)
	}
	halfX, halfY := data.Subset(w.ds.TestX, w.ds.TestY, len(w.ds.TestY)/2)
	cases := map[string]*Pipeline{
		"seed":        base(WithSeed(4)),
		"trials":      base(WithTrials(3)),
		"range":       base(WithTrialRange(0, 1)),
		"workers":     base(WithWorkers(1)),
		"device":      base(WithDevice(device.Default(4, 0.5))),
		"eval set":    base(WithEval(halfX, halfY)),
		"batch":       base(WithEvalBatch(32)),
		"nonideality": base(WithNonidealities(drift...)),
		"calibration": base(WithCalibrationModel(gainoffsetModel(t, "gainoffset"))),
		"spatial":     base(WithSpatial(device.DefaultSpatial(256, 256))),
		"cycle table": base(WithCycleTable([]float64{1, 2, 3})),
	}
	for name, other := range cases {
		if _, err := (Group{base(), other}).Run(context.Background()); err == nil {
			t.Errorf("%s: a group mixing it ran", name)
		}
	}
	drop, err := New(w.net, mustLookup(t, "swim"), DropBudget(90, 1), append(w.options(), WithSeed(3), WithTrials(2))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Group{base(), drop}).Run(context.Background()); err == nil {
		t.Error("a group with a drop budget ran")
	}
}

// countingGate is an ungated mc.Gate that counts the trials it is credited.
type countingGate struct{ done atomic.Int64 }

func (g *countingGate) Limit() (int, <-chan struct{}) { return 1 << 20, nil }
func (g *countingGate) TrialDone(int)                 { g.done.Add(1) }
func (g *countingGate) WorkerParked()                 {}
func (g *countingGate) WorkerWoke()                   {}

// A group credits its gate's observer once per cell and trial, as the
// cells' own runs did.
func TestGroupCreditsEveryCellTrial(t *testing.T) {
	w := workload(t)
	gate := &countingGate{}
	var g Group
	for _, name := range []string{"swim", "random", "noverify"} {
		p, err := New(w.net, mustLookup(t, name), GridBudget(0, 0.1),
			append(w.options(), WithSeed(5), WithTrials(3), WithWorkerGate(gate))...)
		if err != nil {
			t.Fatal(err)
		}
		g = append(g, p)
	}
	if _, err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := gate.done.Load(); n != 3*3 {
		t.Fatalf("gate credited %d trials, want cells × trials = 9", n)
	}
}

// countingKernel counts the dense kernel calls of accuracy measurements.
type countingKernel struct {
	kernel.Backend
	calls atomic.Int64
}

func (k *countingKernel) Conv2D(g tensor.Conv2DGeom, outC int, dst, x, w *tensor.Tensor, bias []float64, cols *tensor.Tensor) {
	k.calls.Add(1)
	k.Backend.Conv2D(g, outC, dst, x, w, bias, cols)
}

func (k *countingKernel) Linear(dst, x, w *tensor.Tensor, bias []float64) {
	k.calls.Add(1)
	k.Backend.Linear(dst, x, w, bias)
}

// A serve-coord-shaped swim + noverify group trial programs one device
// instance where the cells' own runs program two, and runs one NWC-0 pass
// where they run two: its kernel calls are one full pass fewer.
func TestGroupSharesSetUpAndFirstPass(t *testing.T) {
	w := workload(t)
	drift, err := nonideal.ParseStack("drift:nu=0.1")
	if err != nil {
		t.Fatal(err)
	}
	x, y := data.Subset(w.ds.TestX, w.ds.TestY, 64)
	build := func(name string) *Pipeline {
		t.Helper()
		p, err := New(w.net, mustLookup(t, name), GridBudget(0, 0.1, 0.3),
			append(w.options(), WithEval(x, y), WithNonidealities(drift...), WithReadTime(86400),
				WithSeed(7), WithTrials(1), WithWorkers(1))...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	k := &countingKernel{Backend: kernel.Default()}
	evalKernel = k
	defer func() { evalKernel = nil }()
	var news atomic.Int64
	newMapped = func(master *nn.Network, m device.Model, table []float64, r *rng.Source) (*mapping.Mapped, error) {
		news.Add(1)
		return mapping.New(master, m, table, r)
	}
	defer func() { newMapped = mapping.New }()

	measure := func(run func()) (sets, calls int64) {
		news.Store(0)
		k.calls.Store(0)
		run()
		return news.Load(), k.calls.Load()
	}
	aloneSets, aloneCalls := measure(func() {
		for _, name := range []string{"swim", "noverify"} {
			if _, err := build(name).Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	})
	_, passCalls := measure(func() {
		if _, err := build("noverify").Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	groupSets, groupCalls := measure(func() {
		if _, err := (Group{build("swim"), build("noverify")}).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("set-ups %d → %d, kernel calls %d → %d (one full pass: %d)", aloneSets, groupSets, aloneCalls, groupCalls, passCalls)
	if aloneSets != 2 || groupSets != 1 {
		t.Fatalf("mapping.New ran %d times alone and %d in the group, want 2 and 1", aloneSets, groupSets)
	}
	if passCalls == 0 || groupCalls != aloneCalls-passCalls {
		t.Fatalf("group ran %d kernel calls, want the cells' %d less one full pass (%d)", groupCalls, aloneCalls, passCalls)
	}
}

var _ mc.Observer = (*countingGate)(nil)
