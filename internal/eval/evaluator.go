package eval

import (
	"fmt"
	"sync/atomic"
	"time"

	"swim/internal/kernel"
	"swim/internal/nn"
	"swim/internal/tensor"
)

// PlanObserver receives the wall-clock latency of each compiled-plan batch
// execution, labeled with the kernel backend that ran it: one sample per
// executed batch, whether it ran in full or resumed mid-plan (Binding), and
// none for a count a Binding remembered without running anything.
// Implementations must be safe for concurrent use (evaluators run on many
// Monte-Carlo workers) and allocation-free — the observation happens inside
// the evaluation hot path that the repo's benchmarks pin at 0 allocs/op.
type PlanObserver interface {
	// ObservePlan records one plan execution of the named backend taking the
	// given wall-clock seconds.
	ObservePlan(backend string, seconds float64)
}

// planObsBox wraps the observer interface so the package-global hook is a
// single atomic pointer load on the hot path (no interface-header tearing,
// no lock).
type planObsBox struct{ o PlanObserver }

var planObs atomic.Pointer[planObsBox]

// SetPlanObserver installs o as the process-global plan-execution observer
// (nil uninstalls). Uninstrumented processes never pay more than one atomic
// load and nil check per batch. The hook is process-global because
// evaluators are created deep inside worker loops where threading a handle
// through would touch every layer for a strictly observe-only concern.
func SetPlanObserver(o PlanObserver) {
	if o == nil {
		planObs.Store(nil)
		return
	}
	planObs.Store(&planObsBox{o: o})
}

// Evaluator measures dataset-level accuracy through compiled plans. It owns
// (or shares) one scratch arena and caches one Plan per batch size — for the
// usual "full batches plus one tail batch" split that means at most two
// compilations per evaluation-set geometry, after which every accuracy
// measurement is allocation-free. Its plans never run at the same time, so
// a plan for a smaller batch (the tail) backs its activation buffers with
// the arrays of the widest plan compiled before it. Its Accuracy and
// CountCorrect run every
// batch in full on each call; Bind returns a measurement that re-runs only
// what changed. Like the plans it holds, an Evaluator is not safe for
// concurrent use: keep one per Monte-Carlo worker.
type Evaluator struct {
	net     *nn.Network
	scratch *tensor.Arena
	plans   map[int]*Plan
	widest  *Plan // the plan with the largest batch, whose arrays later plans share
	kern    kernel.Backend
	backend string        // precomputed backend label for PlanObserver reports
	view    tensor.Tensor // reusable batch-view header over the eval set
}

// NewEvaluator builds an evaluator for net. arena supplies the execution
// scratch shared by all of the evaluator's plans and the storage of its
// bindings; pass nil for a private arena (the pipeline passes its
// per-worker arena so successive trials reuse the same memory).
func NewEvaluator(net *nn.Network, arena *tensor.Arena) *Evaluator {
	return NewEvaluatorKernel(net, arena, nil)
}

// NewEvaluatorKernel is NewEvaluator with an explicit kernel backend for the
// dense primitives of every plan the evaluator compiles; nil selects
// kernel.Default(). Backends are bit-identical, so accuracy results never
// depend on the choice.
func NewEvaluatorKernel(net *nn.Network, arena *tensor.Arena, k kernel.Backend) *Evaluator {
	if arena == nil {
		arena = tensor.NewArena()
	}
	if k == nil {
		k = kernel.Default()
	}
	return &Evaluator{net: net, scratch: arena, plans: make(map[int]*Plan), kern: k, backend: k.Name()}
}

// Plan returns the compiled plan for the given batched input shape,
// compiling and caching it on first use.
func (e *Evaluator) Plan(inShape []int) (*Plan, error) {
	if len(inShape) < 2 {
		return nil, fmt.Errorf("eval: need a batched input shape, got %v", inShape)
	}
	if pl, ok := e.plans[inShape[0]]; ok && tensor.ShapeEq(pl.InShape(), inShape) {
		return pl, nil
	}
	pl, err := compileShared(e.net, inShape, e.scratch, e.kern, e.widest)
	if err != nil {
		return nil, err
	}
	e.plans[inShape[0]] = pl
	if e.widest == nil || pl.Batch() > e.widest.Batch() {
		e.widest = pl
	}
	return pl, nil
}

// CountCorrect runs the whole evaluation set (x, y) through compiled plans
// in consecutive batches of at most the given size and returns the number of
// correctly classified samples. Every call runs every batch in full; a
// Binding (Bind) re-measures only what changed.
func (e *Evaluator) CountCorrect(x *tensor.Tensor, y []int, batch int) (int, error) {
	return e.count(x, y, batch, 0, nil)
}

// checkSet validates an evaluation set and batch size.
func checkSet(x *tensor.Tensor, y []int, batch int) error {
	if batch < 1 {
		return fmt.Errorf("eval: non-positive batch size %d", batch)
	}
	n := x.Shape[0]
	if n != len(y) {
		return fmt.Errorf("eval: %d samples vs %d labels", n, len(y))
	}
	if n == 0 {
		return fmt.Errorf("eval: empty evaluation set")
	}
	return nil
}

// count is the one batch loop behind CountCorrect and Binding: every batch
// runs its plan from step from (see Plan.run), remembering resume-point
// checkpoints in ck when ck is non-nil.
func (e *Evaluator) count(x *tensor.Tensor, y []int, batch, from int, ck [][]float64) (int, error) {
	if err := checkSet(x, y, batch); err != nil {
		return 0, err
	}
	n := x.Shape[0]
	sample := x.Size() / n
	correct := 0
	// Load the observer hook once per evaluation: one atomic load, then a nil
	// check per batch. With no observer installed this path is exactly as
	// allocation-free as before (pinned by BenchmarkEvalPlan*).
	box := planObs.Load()
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		e.view.Shape = append(e.view.Shape[:0], end-start)
		e.view.Shape = append(e.view.Shape, x.Shape[1:]...)
		e.view.Data = x.Data[start*sample : end*sample]
		pl, err := e.Plan(e.view.Shape)
		if err != nil {
			return 0, err
		}
		var t0 time.Time
		if box != nil {
			t0 = time.Now()
		}
		correct += nn.CountCorrectLogits(pl.run(&e.view, from, ck, start), y[start:end])
		if box != nil {
			box.o.ObservePlan(e.backend, time.Since(t0).Seconds())
		}
	}
	return correct, nil
}

// Accuracy returns the top-1 accuracy (%) of the network over (x, y),
// evaluated in batches of the given size. Steady-state calls (both plans
// already compiled) perform zero heap allocations.
func (e *Evaluator) Accuracy(x *tensor.Tensor, y []int, batch int) (float64, error) {
	correct, err := e.CountCorrect(x, y, batch)
	if err != nil {
		return 0, err
	}
	return 100 * float64(correct) / float64(len(y)), nil
}
