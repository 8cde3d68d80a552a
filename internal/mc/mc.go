// Package mc runs the Monte-Carlo trials behind every number the paper
// reports ("all results ... are obtained over 3,000 Monte Carlo runs ... and
// both mean and standard deviation are reported"). Each trial receives an
// independent child RNG stream split from the experiment seed, so results
// are reproducible regardless of trial count.
//
// # Parallel execution
//
// Trials are embarrassingly parallel: one trial programs one simulated device
// instance and never touches another trial's state. The engine pre-splits one
// child stream per trial with rng.Source.SplitN and fans the trials out over
// a worker pool (SWIM_WORKERS / -workers / runtime.NumCPU). MapCtx and
// MapGate return one result per trial in trial order; RunSeriesShard returns
// the raw series values of a trial range [lo, hi), and FoldSeriesRows folds
// the rows of a whole run into per-point stat.Welford aggregates, one
// singleton merge per trial in trial order. A single-node series run is the
// range [0, trials) folded the same way.
//
// Determinism contract: the trial streams depend only on (seed, trials), and
// the fold order depends only on the trial indices — never on which worker
// ran which trial or when it finished, nor on how the trial space was cut
// into ranges. Means and standard deviations are therefore bit-for-bit
// identical for every worker count, including 1 (the serial path), and for
// every partition into shards. Note that per-worker accumulators merged in
// completion order would NOT have this property; per-trial observations
// folded in index order are what makes the reduction schedule-independent.
//
// For multi-tenant callers (the serving daemon), a run can additionally
// carry a cooperative worker cap — a Gate consulted between trials — so
// concurrent runs split the machine instead of each claiming every CPU
// (MapGate, RunSeriesShard). The same contract makes gates result-neutral.
package mc

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"swim/internal/rng"
	"swim/internal/stat"
)

// Trials returns the Monte-Carlo trial count: def unless the SWIM_MC
// environment variable overrides it. The paper uses 3,000; the defaults here
// are sized for a single-core machine and the harness always reports the
// std so the precision of the mean is visible.
func Trials(def int) int {
	if v := os.Getenv("SWIM_MC"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// EvalSize returns the evaluation-set size: def unless SWIM_EVAL overrides.
func EvalSize(def int) int {
	if v := os.Getenv("SWIM_EVAL"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// Fast reports whether SWIM_FAST is set, asking harnesses to shrink
// everything (used by CI-style runs of the benchmark suite).
func Fast() bool { return os.Getenv("SWIM_FAST") != "" }

// forcedWorkers, when positive, overrides SWIM_WORKERS and runtime.NumCPU.
// The cmd binaries set it from their -workers flag.
var forcedWorkers atomic.Int64

// SetWorkers pins Workers(), the worker count a run uses when it is given
// workers <= 0. n <= 0 restores the SWIM_WORKERS / runtime.NumCPU default.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	forcedWorkers.Store(int64(n))
}

// Workers returns the default Monte-Carlo worker count: SetWorkers if pinned,
// else the SWIM_WORKERS environment variable, else runtime.NumCPU.
func Workers() int {
	if n := int(forcedWorkers.Load()); n > 0 {
		return n
	}
	if v := os.Getenv("SWIM_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.NumCPU()
}

// Gate is a cooperative per-run worker cap. The engine consults it between
// trials: at any moment only the first Limit() of a run's worker goroutines
// pick up new trials; the rest idle until the returned channel signals a
// limit change. A serving layer hands each concurrent job a Gate backed by a
// fair-share budgeter, so jobs split the machine instead of each grabbing
// every CPU (the process-global mc.SetWorkers cannot express that).
//
// Gates never affect results: trial streams and the trial-order merge are
// schedule-independent, so any Limit sequence yields bit-identical output.
type Gate interface {
	// Limit returns how many of the run's workers may process trials right
	// now (values below 1 act as 1), plus a channel that is closed when the
	// limit next changes so idled workers wake without polling.
	Limit() (int, <-chan struct{})
}

// Observer is an optional extension of Gate: a gate that also implements
// Observer receives out-of-band engine events. All methods are observe-only —
// the engine calls them after the fact and ignores any effect they might
// have, so an Observer can never perturb trial order, RNG streams, or
// results. Implementations must be safe for concurrent use and should be
// cheap (atomic counter updates); they run on worker goroutines.
type Observer interface {
	// TrialDone reports that trial t (absolute index within the run's trial
	// space) completed successfully. Calls may arrive out of trial order, but
	// all of them happen before the run returns.
	TrialDone(t int)
	// WorkerParked reports that a worker goroutine started blocking on the
	// gate (its index reached the admission limit).
	WorkerParked()
	// WorkerWoke reports that a previously parked worker resumed (admitted,
	// drained, or cancelled). Parks and wakes are balanced per run.
	WorkerWoke()
}

// awaitGate blocks worker w until the gate admits it (w < Limit), the feed
// channel is drained (parked workers must not deadlock run teardown — they
// proceed to observe the closed channel and exit), or the run context is
// cancelled. It reports whether the worker should proceed to the feed. A
// non-nil obsv is notified when the worker parks and again when it wakes.
func awaitGate(ctx context.Context, w int, gate Gate, drained <-chan struct{}, obsv Observer) bool {
	parked := false
	defer func() {
		if parked && obsv != nil {
			obsv.WorkerWoke()
		}
	}()
	for {
		limit, changed := gate.Limit()
		if limit < 1 {
			limit = 1
		}
		if w < limit {
			return true
		}
		if !parked && obsv != nil {
			parked = true
			obsv.WorkerParked()
		}
		select {
		case <-changed:
		case <-drained:
			return true
		case <-ctx.Done():
			return false
		}
	}
}

// trialFn evaluates trial t from its pre-split stream. A non-nil error
// aborts the whole run.
type trialFn func(t int, r *rng.Source) error

// runTrialRange pre-splits one stream per trial of the full (seed, trials)
// space and executes only the trials in [lo, hi) (0 <= lo <= hi <= trials)
// on workers goroutines. Trial t's stream depends only on (seed, trials, t)
// — never on the range boundaries — which is what lets a distributed
// coordinator partition the trial space across machines and still fold
// bit-identical aggregates. A non-nil gate cooperatively caps how many of
// the workers are active at once; workers is the ceiling it can admit up
// to.
func runTrialRange(ctx context.Context, seed uint64, trials, lo, hi, workers int, gate Gate, trial trialFn) error {
	count := hi - lo
	if workers <= 0 {
		workers = Workers()
	}
	if workers > count {
		workers = count
	}
	if count == 0 {
		return ctx.Err()
	}

	streams := rng.New(seed).SplitN(trials)
	errs := make([]error, count)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// A gate that also implements Observer receives per-trial completion and
	// park/wake events. Strictly observe-only: the engine never reads anything
	// back, so results stay bit-identical with or without an observer.
	obsv, _ := gate.(Observer)

	next := make(chan int)
	drained := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				// Re-check admission before every trial: a fair-share gate
				// shrinks when other jobs arrive, and surplus workers must
				// yield the CPU between trials, not mid-trial.
				if gate != nil && !awaitGate(runCtx, w, gate, drained, obsv) {
					return
				}
				t, ok := <-next
				if !ok {
					return
				}
				if runCtx.Err() != nil {
					return
				}
				if err := safeTrial(trial, t, streams[t]); err != nil {
					errs[t-lo] = err
					cancel()
					return
				}
				if obsv != nil {
					obsv.TrialDone(t)
				}
			}
		}(w)
	}
feed:
	for t := lo; t < hi; t++ {
		select {
		case next <- t:
		case <-runCtx.Done():
			break feed
		}
	}
	close(next)
	close(drained)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// safeTrial runs one trial, converting a panic in the trial body into an
// error. Trials execute on worker goroutines, where an unrecovered panic
// would kill the whole process and bypass the caller's deferred cleanup;
// surfacing it through the error path keeps long sweeps failing cleanly.
func safeTrial(trial trialFn, t int, r *rng.Source) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("mc: trial %d panicked: %v", t, p)
		}
	}()
	return trial(t, r)
}

// MapCtx evaluates f(i, stream_i) for i in [0, n) on workers goroutines
// (0 = Workers()) and returns the results in index order. Each item owns an
// independent pre-split stream, so the output is deterministic in seed and
// independent of the worker count — for experiments that need per-item
// results rather than an aggregate (e.g. Fig. 1's per-weight perturbation
// study). It fails only when ctx is cancelled or an item panics.
func MapCtx[T any](ctx context.Context, seed uint64, n, workers int, f func(i int, r *rng.Source) T) ([]T, error) {
	return MapGate(ctx, seed, n, workers, nil, f)
}

// MapGate is MapCtx with a cooperative worker Gate: up to workers goroutines
// are spawned, but only Gate.Limit() of them pick up items at any moment
// (nil gate = no cap). Results are bit-identical whatever the gate does —
// see the Gate contract.
func MapGate[T any](ctx context.Context, seed uint64, n, workers int, gate Gate, f func(i int, r *rng.Source) T) ([]T, error) {
	out := make([]T, n)
	err := runTrialRange(ctx, seed, n, 0, n, workers, gate, func(t int, r *rng.Source) error {
		out[t] = f(t, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunSeriesShard executes only the trial range [lo, hi) of the full
// (seed, trials) series run, where each trial returns one value per series
// point (e.g. accuracy at every NWC grid value), and returns the raw values
// in trial order: rows[t-lo][i] is trial t's i-th series value. All points
// within a trial share the trial's stream, mirroring the paper's protocol in
// which one Monte-Carlo run programs one device instance and measures the
// whole sweep on it. Trial streams depend only on (seed, trials, t), never
// on the range boundaries, so the rows of any partition of [0, trials),
// concatenated in trial order and folded with FoldSeriesRows, reproduce the
// full range's aggregates bit for bit — each shard is a serializable slice
// of per-trial observations, and any process can replay the exact fold. A
// nil gate means no cap (see MapGate); a trial returning the wrong number of
// values aborts the run with a descriptive error.
func RunSeriesShard(ctx context.Context, seed uint64, trials, lo, hi, points, workers int, gate Gate, f func(r *rng.Source) []float64) ([][]float64, error) {
	if points < 0 {
		return nil, fmt.Errorf("mc: negative series length %d", points)
	}
	if lo < 0 || hi > trials || lo > hi {
		return nil, fmt.Errorf("mc: trial range [%d,%d) outside [0,%d)", lo, hi, trials)
	}
	rows := make([][]float64, hi-lo)
	err := runTrialRange(ctx, seed, trials, lo, hi, workers, gate, func(t int, r *rng.Source) error {
		vals := f(r)
		if len(vals) != points {
			return fmt.Errorf("mc: trial %d returned %d series values, want %d", t, len(vals), points)
		}
		rows[t-lo] = vals
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FoldSeriesRows folds per-trial series rows — a full trial space's rows
// concatenated in trial order — into per-point aggregates: one singleton
// merge per trial (Welford.MergeObs, never Add), in trial order, so the
// aggregates depend only on the rows and never on how they were computed.
// Every row must have exactly points values.
func FoldSeriesRows(points int, rows [][]float64) ([]*stat.Welford, error) {
	out := make([]*stat.Welford, points)
	for i := range out {
		out[i] = &stat.Welford{}
	}
	for t, row := range rows {
		if len(row) != points {
			return nil, fmt.Errorf("mc: row %d has %d series values, want %d", t, len(row), points)
		}
		for i, v := range row {
			out[i].MergeObs(v)
		}
	}
	return out, nil
}
