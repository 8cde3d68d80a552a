package program

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"swim/internal/device"
	"swim/internal/mapping"
	"swim/internal/mc"
	"swim/internal/rng"
	"swim/internal/stat"
	"swim/internal/swim"
)

// These tests pin the redesign's hard guarantee: for a fixed seed, a
// Pipeline run reproduces the pre-redesign swim free-function results —
// swim.WriteVerifyToNWC for NWC grids, swim.Algorithm1 for drop budgets,
// swim.InSituToNWC for the in-situ baseline — bit for bit, at 1 worker and
// at runtime.NumCPU workers. The references below are verbatim ports of the
// legacy experiment glue, driving the (still exported) swim primitives.

const (
	eqSeed   = 41
	eqTrials = 3
	eqSigma  = 1.0
)

func eqDeviceAndTable(seed uint64) (device.Model, []float64) {
	dm := device.Default(4, eqSigma)
	// The pipeline's default table derivation, shared by the references.
	return dm, dm.CycleTable(300, rng.New(seed^0x5eed))
}

// legacySeries runs eqTrials trials of f on the pipeline's trial streams
// (mc.MapCtx splits them exactly like the pipeline) and reduces the values
// independently of the pipeline's row fold: one Welford per trial and point
// fed with Add, merged into the point's aggregate in trial order.
func legacySeries(t *testing.T, points, workers int, f func(r *rng.Source) []float64) []*stat.Welford {
	t.Helper()
	rows, err := mc.MapCtx(context.Background(), eqSeed, eqTrials, workers,
		func(_ int, r *rng.Source) []float64 { return f(r) })
	if err != nil {
		t.Fatal(err)
	}
	agg := make([]*stat.Welford, points)
	for i := range agg {
		agg[i] = &stat.Welford{}
		for _, row := range rows {
			var one stat.Welford
			one.Add(row[i])
			agg[i].Merge(&one)
		}
	}
	return agg
}

// legacySweep is the pre-redesign Sweep trial loop: selector order, then
// device programming, then cumulative WriteVerifyToNWC per grid point (or
// the in-situ write loop), aggregated by legacySeries.
func legacySweep(t *testing.T, w *testWorkload, method string, grid []float64, workers int) ([]*stat.Welford, []*stat.Welford) {
	t.Helper()
	dm, table := eqDeviceAndTable(eqSeed)
	points := len(grid)
	agg := legacySeries(t, 2*points, workers,
		func(r *rng.Source) []float64 {
			out := make([]float64, 2*points)
			var order []int
			switch method {
			case "swim":
				order = swim.NewSWIMSelector(w.hess, w.weights).Order(r)
			case "magnitude":
				order = swim.NewMagnitudeSelector(w.weights).Order(r)
			case "random":
				order = swim.NewRandomSelector(w.net.NumMappedWeights()).Order(r)
			case "insitu":
				// order unused
			default:
				panic("unknown method " + method)
			}
			mp, err := mapping.New(w.net, dm, table, r)
			if err != nil {
				panic(err)
			}
			insituStart := 0
			for i, nwc := range grid {
				if method == "insitu" {
					budget := nwc * mp.BaselineCycles()
					for mp.CyclesUsed < budget {
						insituStart = swim.InSituStep(mp, w.ds.TrainX, w.ds.TrainY, insituStart, swim.DefaultInSitu(), r)
					}
				} else {
					swim.WriteVerifyToNWC(mp, order, nwc, r)
				}
				out[i] = mp.Accuracy(w.ds.TestX, w.ds.TestY, 64)
				out[points+i] = mp.NWC()
			}
			return out
		})
	return agg[:points], agg[points:]
}

func runPipelineGrid(t *testing.T, w *testWorkload, policy string, grid []float64, workers int) *Result {
	t.Helper()
	p, err := New(w.net, mustLookup(t, policy), GridBudget(grid...),
		append(w.options(),
			WithSeed(eqSeed), WithTrials(eqTrials), WithWorkers(workers))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameWelford(a, b *stat.Welford) error {
	if a.N() != b.N() || a.Mean() != b.Mean() || a.Std() != b.Std() {
		return fmt.Errorf("welford mismatch: n %d/%d mean %v/%v std %v/%v",
			a.N(), b.N(), a.Mean(), b.Mean(), a.Std(), b.Std())
	}
	return nil
}

func TestGridEquivalenceWithLegacyPrimitives(t *testing.T) {
	w := workload(t)
	grid := []float64{0, 0.3, 1.0}
	for _, policy := range []string{"swim", "magnitude", "random"} {
		for _, workers := range []int{1, runtime.NumCPU()} {
			wantAcc, wantNWC := legacySweep(t, w, policy, grid, workers)
			res := runPipelineGrid(t, w, policy, grid, workers)
			for i := range grid {
				if err := sameWelford(res.Points[i].Accuracy, wantAcc[i]); err != nil {
					t.Errorf("%s workers=%d point %d accuracy: %v", policy, workers, i, err)
				}
				if err := sameWelford(res.Points[i].NWC, wantNWC[i]); err != nil {
					t.Errorf("%s workers=%d point %d NWC: %v", policy, workers, i, err)
				}
			}
		}
	}
}

func TestInSituEquivalenceWithInSituToNWC(t *testing.T) {
	w := workload(t)
	// Single grid point: SpendTo from a fresh instance is exactly
	// swim.InSituToNWC (same budget rule, same batch cursor start).
	const target = 0.2
	for _, workers := range []int{1, runtime.NumCPU()} {
		dm, table := eqDeviceAndTable(eqSeed)
		want := legacySeries(t, 2, workers,
			func(r *rng.Source) []float64 {
				mp, err := mapping.New(w.net, dm, table, r)
				if err != nil {
					panic(err)
				}
				swim.InSituToNWC(mp, w.ds.TrainX, w.ds.TrainY, target, swim.DefaultInSitu(), r)
				return []float64{mp.Accuracy(w.ds.TestX, w.ds.TestY, 64), mp.NWC()}
			})
		res := runPipelineGrid(t, w, "insitu", []float64{target}, workers)
		if err := sameWelford(res.Points[0].Accuracy, want[0]); err != nil {
			t.Errorf("workers=%d accuracy: %v", workers, err)
		}
		if err := sameWelford(res.Points[0].NWC, want[1]); err != nil {
			t.Errorf("workers=%d NWC: %v", workers, err)
		}
	}
}

func TestDropEquivalenceWithAlgorithm1(t *testing.T) {
	w := workload(t)
	const (
		granularity = 0.25
		maxDrop     = 2.0
	)
	for _, policy := range []string{"swim", "magnitude"} {
		for _, workers := range []int{1, runtime.NumCPU()} {
			// Legacy reference: swim.Algorithm1 per pre-split trial stream,
			// folded in trial order exactly as the mc engine folds.
			dm, table := eqDeviceAndTable(eqSeed)
			var sel swim.Selector
			if policy == "swim" {
				sel = swim.NewSWIMSelector(w.hess, w.weights)
			} else {
				sel = swim.NewMagnitudeSelector(w.weights)
			}
			streams := rng.New(eqSeed).SplitN(eqTrials)
			wantNWC, wantEvals := &stat.Welford{}, &stat.Welford{}
			wantAchieved := 0
			var wantTrace []*stat.Welford
			var wantFrac []float64
			for _, r := range streams {
				mp, err := mapping.New(w.net, dm, table, r)
				if err != nil {
					t.Fatal(err)
				}
				legacy := swim.Algorithm1(mp, sel, granularity, w.clean, maxDrop,
					w.ds.TestX, w.ds.TestY, 64, r)
				for i, s := range legacy.Steps {
					if i == len(wantTrace) {
						wantTrace = append(wantTrace, &stat.Welford{})
						wantFrac = append(wantFrac, s.FractionVerified)
					}
					addObs(wantTrace[i], s.Accuracy)
				}
				last := legacy.Steps[len(legacy.Steps)-1]
				addObs(wantNWC, last.NWC)
				addObs(wantEvals, float64(len(legacy.Steps)))
				if legacy.Achieved {
					wantAchieved++
				}
			}

			p, err := New(w.net, mustLookup(t, policy), DropBudget(w.clean, maxDrop),
				append(w.options(),
					WithGranularity(granularity),
					WithSeed(eqSeed), WithTrials(eqTrials), WithWorkers(workers))...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run(context.Background())
			if err != nil && !errors.Is(err, ErrBudgetExhausted) {
				t.Fatal(err)
			}
			if res.Achieved != wantAchieved {
				t.Errorf("%s workers=%d achieved %d, want %d", policy, workers, res.Achieved, wantAchieved)
			}
			if err := sameWelford(res.NWC, wantNWC); err != nil {
				t.Errorf("%s workers=%d NWC: %v", policy, workers, err)
			}
			if err := sameWelford(res.Evals, wantEvals); err != nil {
				t.Errorf("%s workers=%d evals: %v", policy, workers, err)
			}
			if len(res.Trace) != len(wantTrace) {
				t.Fatalf("%s workers=%d trace length %d, want %d", policy, workers, len(res.Trace), len(wantTrace))
			}
			for i := range wantTrace {
				if err := sameWelford(res.Trace[i].Accuracy, wantTrace[i]); err != nil {
					t.Errorf("%s workers=%d trace step %d: %v", policy, workers, i, err)
				}
				if res.Trace[i].FractionVerified != wantFrac[i] {
					t.Errorf("%s workers=%d step %d fraction %v, want %v",
						policy, workers, i, res.Trace[i].FractionVerified, wantFrac[i])
				}
			}
		}
	}
}

// TestGridWorkerInvariance pins the engine-level guarantee end to end
// through the pipeline: identical Results at every worker count.
func TestGridWorkerInvariance(t *testing.T) {
	w := workload(t)
	grid := []float64{0, 0.5}
	serial := runPipelineGrid(t, w, "swim", grid, 1)
	for _, workers := range []int{3, runtime.NumCPU()} {
		res := runPipelineGrid(t, w, "swim", grid, workers)
		for i := range grid {
			if err := sameWelford(res.Points[i].Accuracy, serial.Points[i].Accuracy); err != nil {
				t.Errorf("workers=%d point %d: %v", workers, i, err)
			}
		}
	}
}
