package program

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"swim/internal/rng"
	"swim/internal/swim"
)

// countingSelector ranks like the magnitude baseline and counts its Order
// calls.
type countingSelector struct {
	weights []float64
	calls   *atomic.Int64
}

func (s countingSelector) Name() string { return "counting" }

func (s countingSelector) Order(r *rng.Source) []int {
	s.calls.Add(1)
	return swim.NewMagnitudeSelector(s.weights).Order(r)
}

// fixedCountingSelector is countingSelector carrying swim.FixedOrder.
type fixedCountingSelector struct{ countingSelector }

func (fixedCountingSelector) FixedOrder() {}

// countingPolicy wraps the counting selector, marked or not, in a
// SelectorPolicy.
func countingPolicy(fixed bool, calls *atomic.Int64) Policy {
	return SelectorPolicy("counting", func(env *Env) (swim.Selector, error) {
		sel := countingSelector{weights: env.Weights, calls: calls}
		if fixed {
			return fixedCountingSelector{sel}, nil
		}
		return sel, nil
	})
}

// dropKey renders a drop-budget Result's aggregates exactly, as resultKey
// does for grids.
func dropKey(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%d|%x/%x|%x;", res.Policy, res.Achieved, res.NWC.Mean(), res.NWC.Std(), res.Evals.Mean())
	for _, st := range res.Trace {
		fmt.Fprintf(&b, "%x:%x/%x/%d:%x/%x;", st.FractionVerified,
			st.Accuracy.Mean(), st.Accuracy.Std(), st.Accuracy.N(), st.NWC.Mean(), st.NWC.Std())
	}
	return b.String()
}

// A marked selector is ranked once per Sensitivity value and policy value —
// not once per trial, run or pipeline — at any worker count, and its
// Results equal those of the same selector ranked per trial, bit for bit.
// Another policy value, or another Sensitivity value, ranks its own order.
func TestFixedOrderRankedOncePerRun(t *testing.T) {
	w := workload(t)
	const trials = 4
	budgets := []struct {
		name string
		b    Budget
		key  func(*Result) string
	}{
		{"grid", GridBudget(0.1, 0.3), resultKey},
		{"drop", DropBudget(w.clean, 1), dropKey},
	}
	for _, bc := range budgets {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", bc.name, workers), func(t *testing.T) {
				run := func(p *Pipeline) *Result {
					t.Helper()
					res, err := p.Run(context.Background())
					if err != nil && !errors.Is(err, ErrBudgetExhausted) {
						t.Fatal(err)
					}
					return res
				}
				sens := mustSensitivity(t, w)
				pipeline := func(pol Policy, s *Sensitivity) *Pipeline {
					t.Helper()
					p, err := New(w.net, pol, bc.b, append(w.options(), WithSensitivity(s),
						WithTrials(trials), WithSeed(11), WithWorkers(workers), WithGranularity(0.1))...)
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
				var fixedCalls, adHocCalls, plainCalls atomic.Int64
				fixedPol := countingPolicy(true, &fixedCalls)
				fixed := pipeline(fixedPol, sens)
				fixedRes := run(fixed)
				if n := fixedCalls.Load(); n != 1 {
					t.Fatalf("marked selector ranked %d times in one run, want 1", n)
				}
				if again := run(fixed); bc.key(again) != bc.key(fixedRes) {
					t.Fatal("second run of one pipeline diverged")
				}
				if other := run(pipeline(fixedPol, sens)); bc.key(other) != bc.key(fixedRes) {
					t.Fatal("a second pipeline on the same Sensitivity diverged")
				}
				if n := fixedCalls.Load(); n != 1 {
					t.Fatalf("marked selector ranked %d times over one Sensitivity in three runs of two pipelines, want 1", n)
				}
				if adHoc := run(pipeline(countingPolicy(true, &adHocCalls), sens)); bc.key(adHoc) != bc.key(fixedRes) {
					t.Fatal("another policy value with the same selector diverged")
				}
				if n := adHocCalls.Load(); n != 1 {
					t.Fatalf("another policy value over the same Sensitivity ranked %d times, want its own 1", n)
				}
				run(pipeline(fixedPol, mustSensitivity(t, w)))
				if n := fixedCalls.Load(); n != 2 {
					t.Fatalf("marked selector ranked %d times over two Sensitivity values, want 2", n)
				}
				plainRes := run(pipeline(countingPolicy(false, &plainCalls), sens))
				if n := plainCalls.Load(); n != trials {
					t.Fatalf("unmarked selector ranked %d times, want one per trial (%d)", n, trials)
				}
				if bc.key(fixedRes) != bc.key(plainRes) {
					t.Fatalf("rank-once result differs from per-trial ranking:\n%s\n%s", bc.key(fixedRes), bc.key(plainRes))
				}
			})
		}
	}
}

// mustSensitivity returns a fresh Sensitivity over w's inputs, whose
// ranking counts start at zero.
func mustSensitivity(t *testing.T, w *testWorkload) *Sensitivity {
	t.Helper()
	s, err := NewSensitivity(w.hess, w.weights)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Pipelines on one Sensitivity that run at the same time share one order:
// the marked selector ranks once, and every run returns the same bits.
func TestFixedOrderSharedAcrossConcurrentPipelines(t *testing.T) {
	w := workload(t)
	sens := mustSensitivity(t, w)
	var calls atomic.Int64
	pol := countingPolicy(true, &calls)
	const pipelines = 4
	keys := make([]string, pipelines)
	errs := make([]error, pipelines)
	var wg sync.WaitGroup
	for i := range pipelines {
		p, err := New(w.net, pol, GridBudget(0.1, 0.3), append(w.options(), WithSensitivity(sens),
			WithTrials(3), WithSeed(13), WithWorkers(2))...)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Run(context.Background())
			if err != nil {
				errs[i] = err
				return
			}
			keys[i] = resultKey(res)
		}()
	}
	wg.Wait()
	for i := range pipelines {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if keys[i] != keys[0] {
			t.Fatalf("pipeline %d diverged:\n%s\n%s", i, keys[i], keys[0])
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d concurrent pipelines on one Sensitivity ranked %d times, want 1", pipelines, n)
	}
}

// random keeps drawing a fresh permutation from each trial's stream.
func TestRandomDrawsPermutationPerTrial(t *testing.T) {
	w := workload(t)
	env := &Env{Net: w.net, Hess: w.hess, Weights: w.weights}
	pol := mustLookup(t, "random")
	n := w.net.NumMappedWeights()
	var prev []int
	for seed := uint64(1); seed <= 3; seed++ {
		tr, err := pol.NewTrial(env, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		got := tr.(*selectorTrial).order
		want := rng.New(seed).Perm(n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: order[%d] = %d, want the stream's permutation %d", seed, i, got[i], want[i])
			}
		}
		if prev != nil && &prev[0] == &got[0] {
			t.Fatal("random trials share one order")
		}
		prev = got
	}
}

// Once an Env has ranked, minting a swim trial allocates only the trial's
// own state: the order is shared, never copied or re-sorted.
func TestFixedOrderTrialAllocs(t *testing.T) {
	w := workload(t)
	env := &Env{Net: w.net, Hess: w.hess, Weights: w.weights}
	pol := mustLookup(t, "swim")
	r := rng.New(1)
	if _, err := pol.NewTrial(env, r); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := pol.NewTrial(env, r); err != nil {
			panic(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("warmed swim NewTrial allocates %v times, want at most 1 (the trial itself)", allocs)
	}
}

// Trials minted concurrently from one Env all get the one shared order,
// equal to the selector's own ranking.
func TestFixedOrderConcurrentTrialsShareOrder(t *testing.T) {
	w := workload(t)
	env := &Env{Net: w.net, Hess: w.hess, Weights: w.weights}
	pol := mustLookup(t, "swim")
	const goroutines = 8
	orders := make([][]int, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := pol.NewTrial(env, rng.New(uint64(g)))
			if err != nil {
				errs[g] = err
				return
			}
			orders[g] = tr.(*selectorTrial).order
		}()
	}
	wg.Wait()
	want := swim.NewSWIMSelector(w.hess, w.weights).Order(nil)
	for g, order := range orders {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if len(order) != len(want) || &order[0] != &orders[0][0] {
			t.Fatalf("goroutine %d got its own order, want the shared one", g)
		}
	}
	for i := range want {
		if orders[0][i] != want[i] {
			t.Fatalf("shared order[%d] = %d, want %d", i, orders[0][i], want[i])
		}
	}
}

// liarSelector claims swim.FixedOrder but shuffles from its rng.
type liarSelector struct{ n int }

func (liarSelector) Name() string                { return "liar" }
func (liarSelector) FixedOrder()                 {}
func (s liarSelector) Order(r *rng.Source) []int { return r.Perm(s.n) }

// A selector wrongly claiming a fixed order fails the run instead of
// sharing one shuffle across every trial.
func TestFixedOrderReadingRNGFailsRun(t *testing.T) {
	w := workload(t)
	pol := SelectorPolicy("liar", func(env *Env) (swim.Selector, error) {
		return liarSelector{n: len(env.Weights)}, nil
	})
	p, err := New(w.net, pol, GridBudget(0.1), append(w.options(), WithTrials(2))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "swim.FixedOrder") {
		t.Fatalf("run with a selector reading its rng: err = %v, want a swim.FixedOrder error", err)
	}
}
