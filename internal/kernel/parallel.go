package kernel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"swim/internal/tensor"
)

// parallel executes independent output regions — batch samples of a
// convolution, destination rows of a matmul — across a bounded worker pool,
// running the blocked loop bodies inside each unit of work. Every unit
// writes a disjoint destination region and each element's accumulation stays
// inside one unit, so results are bit-identical to scalar at any worker
// count and under any scheduling.
//
// All parallel instances share one process-wide pool of NumCPU-1 persistent
// goroutines (the calling goroutine is the remaining lane). Dispatch is a
// struct assignment, a channel token per woken worker and an atomic work
// cursor — no per-call closures or allocations, preserving the plan tier's
// zero-allocation steady state. When the pool is busy (another evaluator
// mid-dispatch) or the job is too small to pay the wake-up cost, the call
// runs serially inline with identical results.
type parallel struct {
	// workers caps the lanes used per call, including the caller; 0 means
	// all CPUs.
	workers int
}

var _ Backend = (*parallel)(nil)

// Name implements Backend.
func (*parallel) Name() string { return "parallel" }

// Spec implements Backend.
func (p *parallel) Spec() string {
	if p.workers <= 0 {
		return "parallel"
	}
	return fmt.Sprintf("parallel:workers=%d", p.workers)
}

// UsesIm2Col implements Backend: the per-sample bodies are the direct
// convolution, so no lowered matrix is ever materialized.
func (*parallel) UsesIm2Col() bool { return false }

// lanes resolves the per-call lane cap (0 = all CPUs). The resolution stays
// out of Spec so a spec written on one machine means "all CPUs" on another.
func (p *parallel) lanes() int {
	if p.workers > 0 {
		return p.workers
	}
	return runtime.NumCPU()
}

// minParallelFlops is the smallest job (in multiply-adds) worth waking the
// pool for; anything smaller runs inline on the caller.
const minParallelFlops = 1 << 15

// MatMul implements Backend.
func (p *parallel) MatMul(c, a, b *tensor.Tensor, accumulate bool) {
	m, k, n := matMulDims(c, a, b)
	j := pjob{kind: jobMatMul, units: m, cd: c.Data, ad: a.Data, bd: b.Data, m: m, k: k, n: n, acc: accumulate}
	if m*k*n < minParallelFlops || !sharedPool.run(p.lanes(), j) {
		runSerial(&j)
	}
}

// MatMulTransA implements Backend.
func (p *parallel) MatMulTransA(c, a, b *tensor.Tensor, accumulate bool) {
	m, k, n := matMulTransADims(c, a, b)
	j := pjob{kind: jobTransA, units: m, cd: c.Data, ad: a.Data, bd: b.Data, m: m, k: k, n: n, acc: accumulate}
	if m*k*n < minParallelFlops || !sharedPool.run(p.lanes(), j) {
		runSerial(&j)
	}
}

// MatMulTransB implements Backend.
func (p *parallel) MatMulTransB(c, a, b *tensor.Tensor, accumulate bool) {
	m, k, n := matMulTransBDims(c, a, b)
	j := pjob{kind: jobTransB, units: m, cd: c.Data, ad: a.Data, bd: b.Data, m: m, k: k, n: n, acc: accumulate}
	if m*k*n < minParallelFlops || !sharedPool.run(p.lanes(), j) {
		runSerial(&j)
	}
}

// Linear implements Backend.
func (p *parallel) Linear(dst, x, w *tensor.Tensor, bias []float64) {
	linearCheck(dst, x, w, bias)
	m, k := x.Shape[0], x.Shape[1]
	n := w.Shape[0]
	j := pjob{kind: jobLinear, units: m, cd: dst.Data, ad: x.Data, bd: w.Data, bias: bias, m: m, k: k, n: n}
	if m*k*n < minParallelFlops || !sharedPool.run(p.lanes(), j) {
		runSerial(&j)
	}
}

// Im2Col implements Backend by delegating to the tensor lowering.
func (*parallel) Im2Col(g tensor.Conv2DGeom, cols *tensor.Tensor, x []float64) {
	g.Im2ColInto(cols, x)
}

// Conv2D implements Backend: one unit of work per batch sample, each running
// the direct convolution. blocked's loop is picked once per call, so every
// sample runs the same one.
func (p *parallel) Conv2D(g tensor.Conv2DGeom, outC int, dst, x, w *tensor.Tensor, bias []float64, _ *tensor.Tensor) {
	conv2DCheck(g, outC, dst, x, w, bias)
	b := x.Shape[0]
	j := pjob{kind: jobConv, units: b, cd: dst.Data, ad: x.Data, bd: w.Data, bias: bias, g: g, outC: outC,
		stationary: outputStationary(g, x.Data)}
	if b*outC*g.ColRows()*g.ColCols() < minParallelFlops || !sharedPool.run(p.lanes(), j) {
		runSerial(&j)
	}
}

// jobKind selects the loop body a pool unit runs.
type jobKind uint8

const (
	jobMatMul jobKind = iota
	jobTransA
	jobTransB
	jobLinear
	jobConv
)

// pjob describes one dispatched kernel call: plain data fields only, so
// handing it to the pool is a struct copy, never a closure allocation.
type pjob struct {
	kind       jobKind
	units      int
	cd         []float64 // destination
	ad         []float64 // left operand (input image for jobConv)
	bd         []float64 // right operand (weights for jobLinear/jobConv)
	bias       []float64
	m, k, n    int
	acc        bool
	g          tensor.Conv2DGeom
	outC       int
	stationary bool // jobConv: run the output-stationary loop (see outputStationary)
}

// runUnit executes unit u of job j: one destination row for the matmul
// kinds, one batch sample for the convolution.
func runUnit(j *pjob, u int) {
	switch j.kind {
	case jobMatMul:
		matMulRowBlocked(j.cd[u*j.n:(u+1)*j.n], j.ad[u*j.k:(u+1)*j.k], j.bd, j.k, j.n, j.acc)
	case jobTransA:
		matMulTransARowBlocked(j.cd[u*j.n:(u+1)*j.n], j.ad, u, j.m, j.bd, j.k, j.n, j.acc)
	case jobTransB:
		matMulTransBRowBlocked(j.cd[u*j.n:(u+1)*j.n], j.ad[u*j.k:(u+1)*j.k], j.bd, j.k, j.n, j.acc)
	case jobLinear:
		linearRowBlocked(j.cd[u*j.n:(u+1)*j.n], j.ad[u*j.k:(u+1)*j.k], j.bd, j.bias, j.k, j.n)
	case jobConv:
		si := j.g.InC * j.g.InH * j.g.InW
		so := j.outC * j.g.OutH * j.g.OutW
		convStackPanel(j.g, j.outC, 1, j.cd[u*so:(u+1)*so], j.ad[u*si:(u+1)*si], j.bd, j.bias, j.stationary)
	}
}

// runSerial executes every unit of j on the calling goroutine.
func runSerial(j *pjob) {
	for u := 0; u < j.units; u++ {
		runUnit(j, u)
	}
}

// sharedPool is the process-wide worker pool behind every parallel backend
// instance. Sharing one pool bounds the goroutine count no matter how many
// pipelines parse "parallel" specs (a long-running swim-serve daemon parses
// one per job), and the TryLock dispatch degrades concurrent users to the
// serial path instead of oversubscribing cores.
var sharedPool pool

// pool runs pjobs across persistent worker goroutines, started on first use.
type pool struct {
	mu    sync.Mutex // held for the duration of one dispatched job
	start sync.Once
	wake  chan struct{}
	lanes int // worker goroutines, excluding the caller's lane
	job   pjob
	next  atomic.Int64
	wg    sync.WaitGroup
}

func (pl *pool) init() {
	pl.lanes = runtime.NumCPU() - 1
	if pl.lanes < 0 {
		pl.lanes = 0
	}
	pl.wake = make(chan struct{}, pl.lanes)
	for i := 0; i < pl.lanes; i++ {
		go pl.serve()
	}
}

// serve is one worker goroutine: wait for a wake token, drain the work
// cursor, signal completion, repeat. The channel receive orders the job
// fields written by run before any read here; wg.Done orders every
// destination write before run's return.
func (pl *pool) serve() {
	for range pl.wake {
		pl.work()
		pl.wg.Done()
	}
}

// work claims units off the shared cursor until the job is drained.
func (pl *pool) work() {
	for {
		u := int(pl.next.Add(1)) - 1
		if u >= pl.job.units {
			return
		}
		runUnit(&pl.job, u)
	}
}

// run executes j's units across up to lanes goroutines (the caller included)
// and returns once all units are done. It returns false without touching j's
// destination when the pool is busy or parallelism cannot help; the caller
// then runs serially — results are identical either way.
func (pl *pool) run(lanes int, j pjob) bool {
	if lanes < 2 || j.units < 2 {
		return false
	}
	if !pl.mu.TryLock() {
		return false
	}
	pl.start.Do(pl.init)
	if pl.lanes == 0 {
		pl.mu.Unlock()
		return false
	}
	pl.job = j
	pl.next.Store(0)
	n := lanes - 1
	if n > pl.lanes {
		n = pl.lanes
	}
	if n > j.units-1 {
		n = j.units - 1
	}
	pl.wg.Add(n)
	for i := 0; i < n; i++ {
		pl.wake <- struct{}{}
	}
	pl.work()
	pl.wg.Wait()
	pl.mu.Unlock()
	return true
}
