// Package kernel implements the pluggable dense-compute backends behind the
// compiled evaluation tier and training's backward pass. Compiled plans run
// Monte-Carlo evaluation with zero steady-state allocations, which leaves
// the forward pass pure compute: every serving-side trial is dominated by
// the matmul and im2col-convolution loops. This package separates that
// operator contract from the loops that execute it, the same
// operator/backend split the photonic and CIM simulators in the related work
// use, so the hot loops can be swapped without touching any layer
// arithmetic. The backward pass of package nn (gradients and Hessian
// diagonals, so training, in-situ steps and the sensitivity pass) runs its
// products on Default as well, except for the convolution's, which runs
// ConvBackward (below).
//
// A Backend implements the dense primitives: the three matmul orientations
// (plain, Aᵀ, Bᵀ) with accumulate variants, which the backward pass uses, a
// fused bias+matmul for fully connected layers, im2col lowering, and a
// batched (optionally im2col-free) convolution. Three backends ship:
//
//   - "scalar": the plain single-threaded loops this repository has always
//     run. It is the reference the other backends are pinned against.
//   - "blocked": register-tiled matmul loops and a direct convolution with
//     two loops, picked by a count of the input's exact zeros: a sparse
//     scatter that skips the zeros ReLU and quantization leave in hidden
//     feature maps, and, for near-dense inputs such as a stem's raw pixels
//     and for strided convolutions up to two zeros in three, an
//     output-stationary loop that sums each output pixel in registers.
//     Same accumulation order per output element, so results are
//     bit-identical to scalar. This is the default everywhere.
//   - "parallel": batch-row parallelism over a bounded shared worker pool,
//     with the blocked loop bodies inside each unit of work. Batch rows are
//     written to disjoint destination regions, so results are bit-identical
//     to scalar at any worker count.
//
// # Determinism contract
//
// Every backend must produce bit-for-bit the results of the scalar backend
// for finite inputs. The scalar loops fix the observable floating-point
// behavior: each output element accumulates its k-terms in ascending k
// order, terms whose left-hand (weight) operand is exactly zero are skipped,
// and fused bias is added after the full k-sum. Backends may re-tile loops,
// hold accumulators in registers, partition independent output regions
// across goroutines, or skip any term whose product is exactly ±0 — padding,
// zero weights, zero activations — because a non-accumulating element's sum
// is seeded at +0 and under round-to-nearest can never become -0, making a
// ±0 term a bitwise no-op (this does not hold for accumulate variants, whose
// seed may be -0). None of that changes any per-element operation sequence;
// backends must not split an element's accumulation into partial sums or
// reorder its terms. The
// cross-backend tests in this package and in package eval pin the contract
// for every model in internal/models, digital and analog.
//
// Because backends are bit-identical, the backend is not a user setting:
// every run executes on Default. The other backends are reached through
// Parse, by the tests that pin them against scalar and the benchmarks that
// time them.
//
// # Convolution backward pass
//
// ConvBackward, beside the blocked loops, is the convolution's backward
// pass at both derivative orders. Behind a max-pool most of a conv layer's
// output derivative is exactly zero (84% in LeNet's conv1, 94% in its
// conv2, over a quantization-aware training run and a Hessian pass), so per
// sample it lists the nonzero entries once and walks only them: one list
// per output channel serves every kernel position of the weight gradient,
// read from a zero-padded input copy instead of an im2col matrix, and the
// input gradient scatters only the pixels that have a nonzero channel.
// Behind a bare ReLU, or a batch norm on frozen statistics, about half the
// entries are zero, which the walk still wins on. A sample whose derivative
// is mostly nonzero (behind a training-mode batch norm, all of it is) runs
// blocked's dense products instead. Either way the bits are those
// of the dense lowering, by the same argument as above: each skipped term
// is a ±0 product added to a sum seeded at +0. It shares the contract's
// finite-input caveat. It is a plain function, not a Backend method:
// training selects no backend, and a new interface method would have to be
// implemented by every Backend wrapper, such as the benchmark's timing
// backend.
//
// A future GOAMD64/assembly backend slots in behind the same interface via
// Register, a spec registry like every other tier's (see package spec).
package kernel

import (
	"swim/internal/tensor"
)

// Backend executes the dense primitives behind the compiled evaluation tier
// and the backward pass. Implementations must satisfy the package-level determinism contract:
// bit-identical results to the scalar backend for finite inputs. Backends
// must be safe for concurrent use by independent callers (the Monte-Carlo
// pipeline shares one backend across its workers); the tensors passed to any
// single call are only touched by that call.
type Backend interface {
	// Name returns the registered backend name (e.g. "scalar").
	Name() string
	// Spec renders the backend back to its canonical parse spec — Name
	// plus any non-default parameters — so Parse(b.Spec()) reproduces it.
	Spec() string
	// MatMul computes C = A·B (or C += A·B when accumulate is true) with
	// A m×k, B k×n, C m×n.
	MatMul(c, a, b *tensor.Tensor, accumulate bool)
	// MatMulTransA computes C = Aᵀ·B (or += when accumulate) with A k×m,
	// B k×n, C m×n.
	MatMulTransA(c, a, b *tensor.Tensor, accumulate bool)
	// MatMulTransB computes C = A·Bᵀ (or += when accumulate) with A m×k,
	// B n×k, C m×n.
	MatMulTransB(c, a, b *tensor.Tensor, accumulate bool)
	// Linear computes the fused fully connected forward dst = x·wᵀ + bias
	// for x [B, in], w [out, in], bias [out] — the bias is added after each
	// element's full k-sum, matching the unfused matmul-then-bias passes
	// bit for bit.
	Linear(dst, x, w *tensor.Tensor, bias []float64)
	// Im2Col lowers one image x (inC×inH×inW, flat) into cols
	// (ColRows × ColCols) for the geometry g, padding with zeros.
	Im2Col(g tensor.Conv2DGeom, cols *tensor.Tensor, x []float64)
	// Conv2D computes the batched convolution forward dst = conv(x, w) +
	// bias for x [B, inC, inH, inW], w [outC, inC*kh*kw], bias [outC].
	// cols is the caller-provided im2col workspace (ColRows × ColCols);
	// backends that are im2col-free (UsesIm2Col() == false) receive nil.
	Conv2D(g tensor.Conv2DGeom, outC int, dst, x, w *tensor.Tensor, bias []float64, cols *tensor.Tensor)
	// UsesIm2Col reports whether Conv2D consumes the cols workspace, so
	// callers with im2col-free backends can skip carving it from scratch
	// arenas entirely.
	UsesIm2Col() bool
}

// Default returns the default backend, blocked: bit-identical to the scalar
// reference and faster on both models BENCH_kernels.json records. It runs
// everything no explicit backend is passed to: the layers' Forward and
// Backward passes and every plan the binaries and the daemon compile.
func Default() Backend { return blocked{} }
