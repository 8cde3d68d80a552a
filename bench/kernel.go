package main

import (
	"time"

	"swim/internal/kernel"
	"swim/internal/tensor"
)

// timedKernel is a kernel.Backend that forwards every primitive to an inner
// backend and adds up how long each kind of primitive took. The replay
// installs one per trial through mapping.Mapped.SetKernel, so its counters
// are only ever touched by the goroutine running that trial.
type timedKernel struct {
	inner kernel.Backend

	conv, linear, matmul, im2col time.Duration
	calls                        int
}

// Name reports the inner backend's name, so plan-observer labels and
// evaluator bookkeeping are unchanged by the wrapper.
func (k *timedKernel) Name() string { return k.inner.Name() }

// Spec reports the inner backend's spec.
func (k *timedKernel) Spec() string { return k.inner.Spec() }

// UsesIm2Col passes the inner backend's answer through: layers decide from
// it whether to carve an im2col workspace.
func (k *timedKernel) UsesIm2Col() bool { return k.inner.UsesIm2Col() }

// MatMul implements kernel.Backend.
func (k *timedKernel) MatMul(c, a, b *tensor.Tensor, accumulate bool) {
	t := time.Now()
	k.inner.MatMul(c, a, b, accumulate)
	k.matmul += time.Since(t)
	k.calls++
}

// MatMulTransA implements kernel.Backend.
func (k *timedKernel) MatMulTransA(c, a, b *tensor.Tensor, accumulate bool) {
	t := time.Now()
	k.inner.MatMulTransA(c, a, b, accumulate)
	k.matmul += time.Since(t)
	k.calls++
}

// MatMulTransB implements kernel.Backend.
func (k *timedKernel) MatMulTransB(c, a, b *tensor.Tensor, accumulate bool) {
	t := time.Now()
	k.inner.MatMulTransB(c, a, b, accumulate)
	k.matmul += time.Since(t)
	k.calls++
}

// Linear implements kernel.Backend.
func (k *timedKernel) Linear(dst, x, w *tensor.Tensor, bias []float64) {
	t := time.Now()
	k.inner.Linear(dst, x, w, bias)
	k.linear += time.Since(t)
	k.calls++
}

// Im2Col implements kernel.Backend.
func (k *timedKernel) Im2Col(g tensor.Conv2DGeom, cols *tensor.Tensor, x []float64) {
	t := time.Now()
	k.inner.Im2Col(g, cols, x)
	k.im2col += time.Since(t)
	k.calls++
}

// Conv2D implements kernel.Backend.
func (k *timedKernel) Conv2D(g tensor.Conv2DGeom, outC int, dst, x, w *tensor.Tensor, bias []float64, cols *tensor.Tensor) {
	t := time.Now()
	k.inner.Conv2D(g, outC, dst, x, w, bias, cols)
	k.conv += time.Since(t)
	k.calls++
}

// total is the time spent inside every primitive so far.
func (k *timedKernel) total() time.Duration { return k.conv + k.linear + k.matmul + k.im2col }
