package kernel

import (
	"swim/internal/tensor"
)

// blocked is the cache/register-tiled backend. Its matmul kernels compute
// each destination row in register-resident tiles of output columns, with
// the k-loop innermost: every output element still accumulates its k-terms
// in ascending order with the scalar backend's zero-skip, so results are
// bit-identical to scalar, but the partial sums live in registers instead of
// round-tripping through the destination row on every k step, and one loaded
// operand feeds several independent accumulator chains. Its fused Linear
// gathers each input row's nonzero terms once and runs every column group
// over that list. Its convolution is direct, in one of two loops. On hidden
// feature maps at stride 1 it is sparse: an input-stationary walk that
// reads each input pixel once and scatters only the nonzero ones into
// pixel-major accumulators — padding, and the exact zeros ReLU and
// quantization leave in roughly half of every hidden feature map, multiply
// against literal zeros in the lowered matmul and are skipped here (a
// bitwise no-op for finite operands, since an accumulator that starts at +0
// can never reach -0). On a near-dense input, such as a stem's raw pixels,
// on an unpadded 5-wide kernel's input up to half zeros, and on a strided
// input up to two zeros in three it is output-stationary: register sums per
// output pixel over the kernel window, skipping only the padding. Both
// loops run a whole 5-wide kernel row (LeNet's) as five straight-line taps.
type blocked struct{}

var _ Backend = blocked{}

// Name implements Backend.
func (blocked) Name() string { return "blocked" }

// Spec implements Backend.
func (blocked) Spec() string { return "blocked" }

// UsesIm2Col implements Backend: the blocked convolution consumes the cols
// workspace — not as an im2col lowering, but as the packing panel its
// register tiles read weights from and the scatter's accumulators.
func (blocked) UsesIm2Col() bool { return true }

// MatMul implements Backend.
func (blocked) MatMul(c, a, b *tensor.Tensor, accumulate bool) {
	m, k, n := matMulDims(c, a, b)
	for i := 0; i < m; i++ {
		matMulRowBlocked(c.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b.Data, k, n, accumulate)
	}
}

// MatMulTransA implements Backend.
func (blocked) MatMulTransA(c, a, b *tensor.Tensor, accumulate bool) {
	m, k, n := matMulTransADims(c, a, b)
	for i := 0; i < m; i++ {
		matMulTransARowBlocked(c.Data[i*n:(i+1)*n], a.Data, i, m, b.Data, k, n, accumulate)
	}
}

// MatMulTransB implements Backend.
func (blocked) MatMulTransB(c, a, b *tensor.Tensor, accumulate bool) {
	m, k, n := matMulTransBDims(c, a, b)
	for i := 0; i < m; i++ {
		matMulTransBRowBlocked(c.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b.Data, k, n, accumulate)
	}
}

// Linear implements Backend.
func (blocked) Linear(dst, x, w *tensor.Tensor, bias []float64) {
	linearCheck(dst, x, w, bias)
	linearRows(dst.Data, x.Data, w.Data, bias, x.Shape[0], x.Shape[1], w.Shape[0])
}

// Im2Col implements Backend by delegating to the tensor lowering.
func (blocked) Im2Col(g tensor.Conv2DGeom, cols *tensor.Tensor, x []float64) {
	g.Im2ColInto(cols, x)
}

// Conv2D implements Backend with a direct convolution in output-channel
// tiles. It counts the exact zeros of the input once per call: an input
// with at most convZeroLimit of them runs the output-stationary loops, any
// other the input-stationary scatter that skips zero activations. Each
// tile's weight rows are transposed once into a p-major panel carved from
// the cols workspace (one pack amortized over every sample of the batch),
// and the scatter's pixel-major accumulators follow it there; without a
// workspace, or with one too small to hold both, they live on the stack
// instead. Every path is bit-identical.
func (blocked) Conv2D(g tensor.Conv2DGeom, outC int, dst, x, w *tensor.Tensor, bias []float64, cols *tensor.Tensor) {
	conv2DCheck(g, outC, dst, x, w, bias)
	stationary := outputStationary(g, x.Data)
	kr := g.ColRows()
	need := 8 * kr
	if !stationary {
		need += 8 * g.ColCols()
	}
	if cols == nil || len(cols.Data) < need {
		convStackPanel(g, outC, x.Shape[0], dst.Data, x.Data, w.Data, bias, stationary)
		return
	}
	convTiles(g, outC, x.Shape[0], dst.Data, x.Data, w.Data, bias, cols.Data[:8*kr], cols.Data[8*kr:need], stationary)
}

// outputStationary reports whether blocked's convolution under g runs the
// output-stationary loop on input x: whether at most convZeroLimit(g,
// len(x)) entries of x are exactly zero. Zeros sit at unpredictable
// positions, so a branch per entry mispredicts often (such a count cost
// 0.30× a trained ResNet-18's strided convolutions); it counts
// zeroCountBlock entries at a time without one and stops at the first
// block that settles the answer either way.
func outputStationary(g tensor.Conv2DGeom, x []float64) bool {
	if g.Pad > g.KW {
		// Some output columns read nothing but padding, and the
		// output-stationary loops' window clipping has no empty window:
		// the scatter never visits those columns.
		return false
	}
	limit := convZeroLimit(g, len(x))
	zeros := 0
	for lo := 0; lo < len(x); lo += zeroCountBlock {
		hi := min(lo+zeroCountBlock, len(x))
		for _, v := range x[lo:hi] {
			if v == 0 {
				zeros++
			}
		}
		if zeros > limit {
			return false
		}
		if hi-zeros >= len(x)-limit {
			return true
		}
	}
	return true
}

// zeroCountBlock is how many entries outputStationary counts between
// checks: few enough that a sparse stride-1 input stops early, enough that
// the checks cost nothing beside the count.
const zeroCountBlock = 256

// convZeroLimit returns the most exact zeros an input of n entries may
// hold and still run blocked's output-stationary loop under g:
// n/convRow5ZeroDiv for an unpadded 5-wide kernel at stride 1,
// n/convDenseZeroDiv for any other at stride 1, n − n/convStridedNonzeroDiv
// at any larger stride.
func convZeroLimit(g tensor.Conv2DGeom, n int) int {
	switch {
	case g.Stride > 1:
		return n - n/convStridedNonzeroDiv
	case g.KW == 5 && g.Pad == 0:
		return n / convRow5ZeroDiv
	}
	return n / convDenseZeroDiv
}

// convDenseZeroDiv sets the switch between blocked's two convolution
// loops at stride 1 for kernels other than unpadded 5-wide ones: an input
// with at most len/convDenseZeroDiv exact zeros runs output-stationary. The
// scatter pays a compare per input pixel and an accumulator
// read-modify-write per term to skip zeros; the output-stationary loop
// keeps each pixel's sums in registers but multiplies every zero it meets.
// With no zeros the output-stationary loop wins on every shape measured
// (1.05–1.89×). The narrowest stride-1 ResNet shape (four lanes) meets the
// scatter at one zero in 16, the eight-lane ones meet the pixel-major
// scatter at 12.5–20%, and every stride-1 ResNet shape loses at 30% zeros
// (see EXPERIMENTS.md). Real inputs sit far from the switch: raw
// pixels (every stem's input) have no zeros, and every hidden feature map
// measured has 23–59%.
const convDenseZeroDiv = 16

// convRow5ZeroDiv sets the switch at stride 1 for an unpadded 5-wide
// kernel (LeNet's conv2): an input with at most half its entries exactly
// zero runs output-stationary. There every kernel row is whole and runs as
// five straight-line taps, which moves the crossover far out: on LeNet's
// conv2 the pixel-major scatter takes 1.12× the output-stationary loop's
// time at half zeros and ties it at 55–60%, where the lane-major scatter
// met the old loop at 20–30% (see EXPERIMENTS.md). conv2's inputs sit on
// both sides: 35–55% zeros in a cold build, a Table 1 job and an
// Algorithm 1 run, 70–80% under drift. Padding keeps the one-in-16
// switch: the scatter skips it for free, while the output-stationary
// loop's clipped border pixels run the tap loop, so on padded 5×5 hidden
// shapes the scatter already wins at 40% zeros.
const convRow5ZeroDiv = 2

// convStridedNonzeroDiv sets the switch at stride > 1: an input at least
// len/convStridedNonzeroDiv of whose entries are nonzero (at most two zeros
// in three) runs output-stationary. A strided scatter's terms land on
// accumulators s pixels apart and its kernel rows are never whole, so at
// stride 2 the output-stationary loop keeps its lead far longer: on
// ResNet-18's 3×3 downsampling shapes it meets the scatter at 64–71% zeros,
// on its 1×1 projections at 70% or more (see EXPERIMENTS.md). A
// downsampling block's 3×3 convolution and 1×1 projection read the same
// input, and the 3×3 one costs about four times as much, so the switch
// sits at the 3×3 shapes' crossover. Strided inputs measured in trained
// and untrained ResNet-18s hold 22–60% zeros.
const convStridedNonzeroDiv = 3

// panelMaxKR bounds the kernel-position count (inC·kh·kw) for which
// convStackPanel packs weight panels on the stack; larger geometries run
// the unpacked single-channel kernel.
const panelMaxKR = 512

// accMaxHW bounds the output map (OutH·OutW pixels) whose eight-lane
// scatter accumulators convStackPanel holds on the stack, beside the panel:
// every LeNet and width-4 ResNet-18 map past the first stage fits. Larger
// maps scatter four lanes at a time there.
const accMaxHW = 256

// convStackPanel is convTiles for callers without a workspace big enough
// to pack a panel into (and, for the scatter, to accumulate in): the
// parallel backend's per-sample units and plans whose output map is
// narrower than eight pixels.
func convStackPanel(g tensor.Conv2DGeom, outC, b int, dst, x, wd, bias []float64, stationary bool) {
	if g.ColRows() > panelMaxKR {
		convTiles(g, outC, b, dst, x, wd, bias, nil, nil, stationary)
		return
	}
	var panel [8 * panelMaxKR]float64
	var acc [8 * accMaxHW]float64
	var ac []float64
	if hw := g.ColCols(); !stationary && hw <= accMaxHW {
		ac = acc[:8*hw]
	}
	convTiles(g, outC, b, dst, x, wd, bias, panel[:], ac, stationary)
}

// convTiles computes samples [0, b) of a batched convolution: dst
// ([b, outC, OutH, OutW] flat) from x ([b, InC, InH, InW] flat), wd
// ([outC, inC·kh·kw] flat) and bias, one output-channel tile at a time. A
// tile's weight rows are packed into wpk (at least 8·inC·kh·kw long) once,
// then every sample runs the tile's kernel: output-stationary when
// stationary (which needs padding no wider than the kernel, see
// outputStationary), the scatter otherwise. Tiles are eight lanes wide
// while that many channels remain (the scatter's only where acc holds
// eight accumulators per output pixel), then (output-stationary only, so
// LeNet's six-channel stem runs in one pass) six, then four; two- and
// one-lane remainders run the scatter either way. A nil wpk runs every
// channel through the unpacked one-lane scatter.
func convTiles(g tensor.Conv2DGeom, outC, b int, dst, x, wd, bias, wpk, acc []float64, stationary bool) {
	kr := g.ColRows()
	hw := g.OutH * g.OutW
	sampleIn := g.InC * g.InH * g.InW
	sampleOut := outC * hw
	for oc := 0; oc < outC; {
		lanes := 1
		switch rem := outC - oc; {
		case wpk == nil:
		case rem >= 8 && (stationary || len(acc) >= 8*hw):
			lanes = 8
		case rem >= 6 && stationary:
			lanes = 6
		case rem >= 4:
			lanes = 4
		case rem >= 2:
			lanes = 2
		}
		wt := wd[oc*kr : (oc+lanes)*kr]
		tb := bias[oc : oc+lanes]
		if lanes > 1 {
			packPanel(wt, kr, lanes, wpk)
		}
		for bi := 0; bi < b; bi++ {
			out := dst[bi*sampleOut+oc*hw : bi*sampleOut+(oc+lanes)*hw]
			xs := x[bi*sampleIn : (bi+1)*sampleIn]
			switch {
			case lanes == 8 && stationary:
				convOS8(g, out, xs, wpk, tb)
			case lanes == 8:
				convSP8(g, out, xs, wpk, acc[:8*hw], tb)
			case lanes == 6:
				convOS6(g, out, xs, wpk, tb)
			case lanes == 4 && stationary:
				convOS4(g, out, xs, wpk, tb)
			case lanes == 4:
				convSP4(g, out, xs, wpk, tb, hw)
			case lanes == 2:
				convSP2(g, out, xs, wpk, tb, hw)
			default:
				convSP1(g, out, xs, wt, tb[0], hw)
			}
		}
		oc += lanes
	}
}

// packPanel transposes lanes weight rows (each kr long) into the p-major
// panel wpk[p*lanes+l], so a register tile's inner loop loads its lane
// weights from consecutive memory.
func packPanel(wt []float64, kr, lanes int, wpk []float64) {
	for l := 0; l < lanes; l++ {
		wrow := wt[l*kr : (l+1)*kr]
		for p, wv := range wrow {
			wpk[p*lanes+l] = wv
		}
	}
}

// matMulDims validates C = A·B shapes and returns (m, k, n).
func matMulDims(c, a, b *tensor.Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(c.Shape) != 2 {
		panic("kernel: MatMul requires rank-2 operands")
	}
	m, k = a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic("kernel: MatMul shape mismatch")
	}
	return m, k, n
}

// matMulTransADims validates C = Aᵀ·B shapes and returns (m, k, n).
func matMulTransADims(c, a, b *tensor.Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(c.Shape) != 2 {
		panic("kernel: MatMulTransA requires rank-2 operands")
	}
	k, m = a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic("kernel: MatMulTransA shape mismatch")
	}
	return m, k, n
}

// matMulTransBDims validates C = A·Bᵀ shapes and returns (m, k, n).
func matMulTransBDims(c, a, b *tensor.Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(c.Shape) != 2 {
		panic("kernel: MatMulTransB requires rank-2 operands")
	}
	m, k = a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic("kernel: MatMulTransB shape mismatch")
	}
	return m, k, n
}

// matMulRowBlocked computes one row of C = A·B (crow = arow·B), eight output
// columns per register tile, k innermost with the scalar zero-skip. bd is
// the k×n right-hand matrix, flat.
func matMulRowBlocked(crow, arow, bd []float64, k, n int, accumulate bool) {
	j := 0
	for ; j+8 <= n; j += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		if accumulate {
			s0, s1, s2, s3 = crow[j], crow[j+1], crow[j+2], crow[j+3]
			s4, s5, s6, s7 = crow[j+4], crow[j+5], crow[j+6], crow[j+7]
		}
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			bq := bd[p*n+j : p*n+j+8]
			s0 += av * bq[0]
			s1 += av * bq[1]
			s2 += av * bq[2]
			s3 += av * bq[3]
			s4 += av * bq[4]
			s5 += av * bq[5]
			s6 += av * bq[6]
			s7 += av * bq[7]
		}
		crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		crow[j+4], crow[j+5], crow[j+6], crow[j+7] = s4, s5, s6, s7
	}
	for ; j < n; j++ {
		s := 0.0
		if accumulate {
			s = crow[j]
		}
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			s += av * bd[p*n+j]
		}
		crow[j] = s
	}
}

// matMulTransARowBlocked computes row i of C = Aᵀ·B, reading column i of the
// k×m matrix A. Same tiling and element-level term order as the plain kernel.
func matMulTransARowBlocked(crow, ad []float64, i, m int, bd []float64, k, n int, accumulate bool) {
	j := 0
	for ; j+8 <= n; j += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		if accumulate {
			s0, s1, s2, s3 = crow[j], crow[j+1], crow[j+2], crow[j+3]
			s4, s5, s6, s7 = crow[j+4], crow[j+5], crow[j+6], crow[j+7]
		}
		for p := 0; p < k; p++ {
			av := ad[p*m+i]
			if av == 0 {
				continue
			}
			bq := bd[p*n+j : p*n+j+8]
			s0 += av * bq[0]
			s1 += av * bq[1]
			s2 += av * bq[2]
			s3 += av * bq[3]
			s4 += av * bq[4]
			s5 += av * bq[5]
			s6 += av * bq[6]
			s7 += av * bq[7]
		}
		crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		crow[j+4], crow[j+5], crow[j+6], crow[j+7] = s4, s5, s6, s7
	}
	for ; j < n; j++ {
		s := 0.0
		if accumulate {
			s = crow[j]
		}
		for p := 0; p < k; p++ {
			av := ad[p*m+i]
			if av == 0 {
				continue
			}
			s += av * bd[p*n+j]
		}
		crow[j] = s
	}
}

// matMulTransBRowBlocked computes one row of C = A·Bᵀ: four dot products at
// a time against consecutive rows of B, giving four independent accumulator
// chains where the scalar kernel has one. Each dot product runs in the same
// ascending-k order (and, like the scalar kernel, without a zero-skip).
func matMulTransBRowBlocked(crow, arow, bd []float64, k, n int, accumulate bool) {
	j := 0
	for ; j+4 <= n; j += 4 {
		b0 := bd[j*k : (j+1)*k]
		b1 := bd[(j+1)*k : (j+2)*k]
		b2 := bd[(j+2)*k : (j+3)*k]
		b3 := bd[(j+3)*k : (j+4)*k]
		var s0, s1, s2, s3 float64
		for p, av := range arow {
			s0 += av * b0[p]
			s1 += av * b1[p]
			s2 += av * b2[p]
			s3 += av * b3[p]
		}
		if accumulate {
			crow[j] += s0
			crow[j+1] += s1
			crow[j+2] += s2
			crow[j+3] += s3
		} else {
			crow[j] = s0
			crow[j+1] = s1
			crow[j+2] = s2
			crow[j+3] = s3
		}
	}
	for ; j < n; j++ {
		brow := bd[j*k : (j+1)*k]
		s := 0.0
		for p, av := range arow {
			s += av * brow[p]
		}
		if accumulate {
			crow[j] += s
		} else {
			crow[j] = s
		}
	}
}

// linearGather bounds how many nonzero input terms linearRowBlocked
// gathers at a time: fc1's 400 inputs are 79% zero on the trained LeNet's
// test set, so one fill serves a LeNet row.
const linearGather = 256

// linearTerm is one nonzero input activation of a Linear row and its
// position.
type linearTerm struct {
	p int
	v float64
}

// linearRows computes rows [0, m) of the fused Linear dst = x·wᵀ + bias
// (x m×k, w n×k, dst m×n, flat), gathering each row's terms into one stack
// buffer.
func linearRows(dst, x, wd, bias []float64, m, k, n int) {
	var terms [linearGather]linearTerm
	for i := 0; i < m; i++ {
		linearRowBlocked(dst[i*n:(i+1)*n], x[i*k:(i+1)*k], wd, bias, k, n, terms[:])
	}
}

// linearRowBlocked is matMulTransBRowBlocked with the bias folded into the
// final store and a zero-skip on the input activation: every dot product
// starts from +0 and can never become -0, so dropping the av == 0 terms
// (about half of a post-ReLU, post-quantization feature vector) only ever
// skips adding ±0 — bitwise the scalar fused Linear for finite inputs. The
// row's nonzero terms are gathered once, without a branch per entry, into
// terms, in ascending position, and every four-column group then runs over
// that list instead of testing each input again. A row with more nonzero
// terms than terms holds runs in chunks: each column's partial sum waits
// in crow between chunks and the next chunk resumes from it, so every sum
// still adds its terms one by one in ascending order.
func linearRowBlocked(crow, arow, wd, bias []float64, k, n int, terms []linearTerm) {
	for p, first := 0, true; ; first = false {
		m := 0
		for ; p < k && m < len(terms); p++ {
			av := arow[p]
			terms[m] = linearTerm{p, av}
			if av != 0 {
				m++
			}
		}
		ts, last := terms[:m], p == k
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := wd[j*k : (j+1)*k]
			b1 := wd[(j+1)*k : (j+2)*k]
			b2 := wd[(j+2)*k : (j+3)*k]
			b3 := wd[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			if !first {
				s0, s1, s2, s3 = crow[j], crow[j+1], crow[j+2], crow[j+3]
			}
			for _, t := range ts {
				s0 += t.v * b0[t.p]
				s1 += t.v * b1[t.p]
				s2 += t.v * b2[t.p]
				s3 += t.v * b3[t.p]
			}
			if last {
				s0, s1, s2, s3 = s0+bias[j], s1+bias[j+1], s2+bias[j+2], s3+bias[j+3]
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := wd[j*k : (j+1)*k]
			s := 0.0
			if !first {
				s = crow[j]
			}
			for _, t := range ts {
				s += t.v * brow[t.p]
			}
			if last {
				s += bias[j]
			}
			crow[j] = s
		}
		if last {
			return
		}
	}
}

// outSpan returns the inclusive output-coordinate range [lo, hi] reached by
// padded input coordinate v (= in + pad) through a kernel of extent k over n
// outputs: output o covers v via kernel offset v-stride·o, valid when that
// offset lies in [0, k). Iterating o from hi down to lo walks the kernel
// offsets in ascending order, which is what keeps per-element accumulation in
// im2col row order. An empty range comes back with lo > hi.
func outSpan(v, k, n, stride int) (lo, hi int) {
	if stride == 1 {
		lo, hi = v-k+1, v
	} else {
		// ceil((v-k+1)/stride): exact for positive numerators; negative
		// ones truncate toward zero but land at ≤ 0 and clamp below.
		lo, hi = (v-k+stride)/stride, v/stride
	}
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	return lo, hi
}

// convSP8 computes eight output channels of one sample's convolution from the
// p-major packed panel wpk (wpk[p*8+l] is lane l's weight at kernel position
// p), walking the *input* instead of the output: each input pixel is loaded
// and tested once and — when nonzero — scattered through every kernel
// position it feeds, eight channel lanes per position. Zero pixels cost one
// compare: padding never enters the loops at all, and the post-ReLU /
// post-quantization zeros that make up roughly half of every hidden feature
// map skip kh·kw·8 multiply-adds per compare, so the (unpredictable) branch
// is amortized instead of paying a misprediction per kernel position the way
// an output-stationary skip does. The sums gather pixel-major in acc
// (acc[q*8+l] is lane l's sum at output pixel q; 8·OutH·OutW long), so one
// term's eight lanes are one contiguous read-modify-write and a pixel's
// horizontal neighbours are the next eight entries: at stride 1 a whole
// 5-wide kernel row scatters into 40 adjacent accumulators as straight-line
// code. For any fixed output element the visits arrive in
// ascending (c, ii, jj) — which is ascending im2col p order — each adding
// one term to an accumulator that starts at +0 and can never become -0, so
// after the closing pass, which transposes acc into the channel planes and
// adds the bias, the result is bitwise the im2col + matmul + bias sequence
// for finite inputs. Any stride.
func convSP8(g tensor.Conv2DGeom, out, xs, wpk, acc, bias []float64) {
	hw := g.OutH * g.OutW
	clear(acc)
	ihw := g.InH * g.InW
	s := g.Stride
	kw8 := g.KW * 8
	row5 := s == 1 && g.KW == 5
	for c := 0; c < g.InC; c++ {
		plane := xs[c*ihw : (c+1)*ihw]
		cbase := c * g.KH * kw8
		for ii := 0; ii < g.InH; ii++ {
			a := ii + g.Pad
			oiMin, oiMax := outSpan(a, g.KH, g.OutH, s)
			if oiMax < oiMin {
				continue
			}
			row := plane[ii*g.InW : (ii+1)*g.InW]
			for jj, xv := range row {
				if xv == 0 {
					continue
				}
				b := jj + g.Pad
				ojMin, ojMax := outSpan(b, g.KW, g.OutW, s)
				if ojMax < ojMin {
					continue
				}
				// Within one pixel's scatter every output element
				// receives exactly one term, so the walk order over
				// (oi, oj) is bitwise irrelevant. Each kernel row
				// down is one output row up: wb steps by s·kw8, q by
				// −OutW.
				wb := cbase + (a-s*oiMax)*kw8 + (b-s*ojMax)*8
				q := oiMax*g.OutW + ojMax
				if row5 && ojMax-ojMin == 4 {
					// An unclipped row: output pixels b−4 … b,
					// adjacent in acc, read kernel columns 4 … 0.
					for n := oiMax - oiMin; n >= 0; n-- {
						wq := (*[40]float64)(wpk[wb : wb+40])
						aq := (*[40]float64)(acc[(q-4)*8 : (q+1)*8])
						aq[32] += wq[0] * xv
						aq[33] += wq[1] * xv
						aq[34] += wq[2] * xv
						aq[35] += wq[3] * xv
						aq[36] += wq[4] * xv
						aq[37] += wq[5] * xv
						aq[38] += wq[6] * xv
						aq[39] += wq[7] * xv
						aq[24] += wq[8] * xv
						aq[25] += wq[9] * xv
						aq[26] += wq[10] * xv
						aq[27] += wq[11] * xv
						aq[28] += wq[12] * xv
						aq[29] += wq[13] * xv
						aq[30] += wq[14] * xv
						aq[31] += wq[15] * xv
						aq[16] += wq[16] * xv
						aq[17] += wq[17] * xv
						aq[18] += wq[18] * xv
						aq[19] += wq[19] * xv
						aq[20] += wq[20] * xv
						aq[21] += wq[21] * xv
						aq[22] += wq[22] * xv
						aq[23] += wq[23] * xv
						aq[8] += wq[24] * xv
						aq[9] += wq[25] * xv
						aq[10] += wq[26] * xv
						aq[11] += wq[27] * xv
						aq[12] += wq[28] * xv
						aq[13] += wq[29] * xv
						aq[14] += wq[30] * xv
						aq[15] += wq[31] * xv
						aq[0] += wq[32] * xv
						aq[1] += wq[33] * xv
						aq[2] += wq[34] * xv
						aq[3] += wq[35] * xv
						aq[4] += wq[36] * xv
						aq[5] += wq[37] * xv
						aq[6] += wq[38] * xv
						aq[7] += wq[39] * xv
						wb += kw8
						q -= g.OutW
					}
					continue
				}
				for oi := oiMax; oi >= oiMin; oi-- {
					wr, ar := wb, q
					for oj := ojMax; oj >= ojMin; oj-- {
						wq := (*[8]float64)(wpk[wr : wr+8])
						aq := (*[8]float64)(acc[ar*8 : ar*8+8])
						aq[0] += wq[0] * xv
						aq[1] += wq[1] * xv
						aq[2] += wq[2] * xv
						aq[3] += wq[3] * xv
						aq[4] += wq[4] * xv
						aq[5] += wq[5] * xv
						aq[6] += wq[6] * xv
						aq[7] += wq[7] * xv
						wr += 8 * s
						ar--
					}
					wb += s * kw8
					q -= g.OutW
				}
			}
		}
	}
	o0, o1, o2, o3 := out[0*hw:1*hw], out[1*hw:2*hw], out[2*hw:3*hw], out[3*hw:4*hw]
	o4, o5, o6, o7 := out[4*hw:5*hw], out[5*hw:6*hw], out[6*hw:7*hw], out[7*hw:8*hw]
	bv := (*[8]float64)(bias)
	for q := 0; q < hw; q++ {
		aq := (*[8]float64)(acc[q*8 : q*8+8])
		o0[q], o1[q], o2[q], o3[q] = aq[0]+bv[0], aq[1]+bv[1], aq[2]+bv[2], aq[3]+bv[3]
		o4[q], o5[q], o6[q], o7[q] = aq[4]+bv[4], aq[5]+bv[5], aq[6]+bv[6], aq[7]+bv[7]
	}
}

// convSP4 is convSP8's scatter at four packed lanes, summing lane-major in
// the output planes themselves and pairing adjacent output pixels at
// stride 1 (one eight-wide panel load feeds both). It covers the narrow
// models (the CIFAR ResNet's early stages run four channels total) and
// eight-lane tiles whose accumulators fit neither the workspace nor the
// stack.
func convSP4(g tensor.Conv2DGeom, out, xs, wpk, bias []float64, hw int) {
	for i := range out {
		out[i] = 0
	}
	o0, o1, o2, o3 := out[0*hw:1*hw], out[1*hw:2*hw], out[2*hw:3*hw], out[3*hw:4*hw]
	ihw := g.InH * g.InW
	s := g.Stride
	kw4 := g.KW * 4
	for c := 0; c < g.InC; c++ {
		plane := xs[c*ihw : (c+1)*ihw]
		cbase := c * g.KH * kw4
		for ii := 0; ii < g.InH; ii++ {
			a := ii + g.Pad
			oiMin, oiMax := outSpan(a, g.KH, g.OutH, s)
			if oiMax < oiMin {
				continue
			}
			row := plane[ii*g.InW : (ii+1)*g.InW]
			for jj, xv := range row {
				if xv == 0 {
					continue
				}
				b := jj + g.Pad
				ojMin, ojMax := outSpan(b, g.KW, g.OutW, s)
				if ojMax < ojMin {
					continue
				}
				for oi := oiMax; oi >= oiMin; oi-- {
					wb := cbase + (a-s*oi)*kw4 + (b-s*ojMax)*4
					q := oi*g.OutW + ojMax
					oj := ojMax
					if s == 1 {
						for ; oj > ojMin; oj -= 2 {
							wq := wpk[wb : wb+8]
							o0[q] += wq[0] * xv
							o1[q] += wq[1] * xv
							o2[q] += wq[2] * xv
							o3[q] += wq[3] * xv
							o0[q-1] += wq[4] * xv
							o1[q-1] += wq[5] * xv
							o2[q-1] += wq[6] * xv
							o3[q-1] += wq[7] * xv
							wb += 8
							q -= 2
						}
					}
					for ; oj >= ojMin; oj-- {
						wq := wpk[wb : wb+4]
						o0[q] += wq[0] * xv
						o1[q] += wq[1] * xv
						o2[q] += wq[2] * xv
						o3[q] += wq[3] * xv
						wb += 4 * s
						q--
					}
				}
			}
		}
	}
	for l, bv := range bias {
		seg := out[l*hw : (l+1)*hw]
		for q := range seg {
			seg[q] += bv
		}
	}
}

// convSP2 is convSP4 at two packed lanes, without the pairing, for the
// channel-count remainders.
func convSP2(g tensor.Conv2DGeom, out, xs, wpk, bias []float64, hw int) {
	for i := range out {
		out[i] = 0
	}
	o0, o1 := out[0*hw:1*hw], out[1*hw:2*hw]
	ihw := g.InH * g.InW
	s := g.Stride
	kw2 := g.KW * 2
	for c := 0; c < g.InC; c++ {
		plane := xs[c*ihw : (c+1)*ihw]
		cbase := c * g.KH * kw2
		for ii := 0; ii < g.InH; ii++ {
			a := ii + g.Pad
			oiMin, oiMax := outSpan(a, g.KH, g.OutH, s)
			if oiMax < oiMin {
				continue
			}
			row := plane[ii*g.InW : (ii+1)*g.InW]
			for jj, xv := range row {
				if xv == 0 {
					continue
				}
				b := jj + g.Pad
				ojMin, ojMax := outSpan(b, g.KW, g.OutW, s)
				if ojMax < ojMin {
					continue
				}
				for oi := oiMax; oi >= oiMin; oi-- {
					wkbase := cbase + (a-s*oi)*kw2
					obase := oi * g.OutW
					for oj := ojMax; oj >= ojMin; oj-- {
						q := obase + oj
						wb := wkbase + (b-s*oj)*2
						wq := wpk[wb : wb+2]
						o0[q] += wq[0] * xv
						o1[q] += wq[1] * xv
					}
				}
			}
		}
	}
	for l, bv := range bias {
		seg := out[l*hw : (l+1)*hw]
		for q := range seg {
			seg[q] += bv
		}
	}
}

// convSP1 is the single-channel remainder of the output-channel tiling: the
// same input-stationary scatter, reading the channel's weight row in place —
// at one lane there is nothing for packing to make contiguous.
func convSP1(g tensor.Conv2DGeom, out, xs, wrow []float64, bv float64, hw int) {
	for i := range out {
		out[i] = 0
	}
	ihw := g.InH * g.InW
	s := g.Stride
	for c := 0; c < g.InC; c++ {
		plane := xs[c*ihw : (c+1)*ihw]
		cbase := c * g.KH * g.KW
		for ii := 0; ii < g.InH; ii++ {
			a := ii + g.Pad
			oiMin, oiMax := outSpan(a, g.KH, g.OutH, s)
			if oiMax < oiMin {
				continue
			}
			row := plane[ii*g.InW : (ii+1)*g.InW]
			for jj, xv := range row {
				if xv == 0 {
					continue
				}
				b := jj + g.Pad
				ojMin, ojMax := outSpan(b, g.KW, g.OutW, s)
				if ojMax < ojMin {
					continue
				}
				for oi := oiMax; oi >= oiMin; oi-- {
					wkbase := cbase + (a-s*oi)*g.KW
					obase := oi * g.OutW
					for oj := ojMax; oj >= ojMin; oj-- {
						out[obase+oj] += wrow[wkbase+b-s*oj] * xv
					}
				}
			}
		}
	}
	for q := range out {
		out[q] += bv
	}
}

// windowSpan clips a kernel window that starts at input coordinate start
// (negative inside the leading padding) to an input extent n: kernel
// offsets [lo, hi) read real input, the rest read padding. hi ≥ lo. A
// window wholly inside padding wider than the kernel comes back empty but
// out of range, which is why outputStationary never picks the loops that
// read it under such padding.
func windowSpan(start, k, n int) (lo, hi int) {
	lo, hi = 0, k
	if start < 0 {
		lo = -start
	}
	if start+k > n {
		hi = n - start
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// convOS8 computes eight output channels of one sample's convolution
// output-stationary, from the same p-major packed panel as convSP8: each
// output pixel sums its eight lanes' w·x terms in registers from +0, over
// the kernel window clipped to the input, in ascending (c, ki, kj) — which
// is ascending im2col p order — and then adds the bias. Per element that is
// scalar's sequence without the padding's ±0 terms, which are bitwise
// no-ops, so the result is the im2col + matmul + bias one for finite
// inputs. Unlike the scatter it tests no input for zero and writes each
// output once, instead of reading and writing it once per term: the loop
// for inputs with few zeros to skip. A pixel whose 5-wide window no
// column of padding clips runs each kernel row as straight-line code: one
// bounds check for its five inputs and one for their 40 weights, constant
// indices, no tap counter. Clipped windows and other widths run the tap
// loop. Any stride.
func convOS8(g tensor.Conv2DGeom, out, xs, wpk, bias []float64) {
	hw := g.OutH * g.OutW
	o0, o1, o2, o3 := out[0*hw:1*hw], out[1*hw:2*hw], out[2*hw:3*hw], out[3*hw:4*hw]
	o4, o5, o6, o7 := out[4*hw:5*hw], out[5*hw:6*hw], out[6*hw:7*hw], out[7*hw:8*hw]
	ihw, kk := g.InH*g.InW, g.KH*g.KW
	for oi := 0; oi < g.OutH; oi++ {
		r0 := oi*g.Stride - g.Pad
		kiLo, kiHi := windowSpan(r0, g.KH, g.InH)
		for oj := 0; oj < g.OutW; oj++ {
			c0 := oj*g.Stride - g.Pad
			kjLo, kjHi := windowSpan(c0, g.KW, g.InW)
			row5 := g.KW == 5 && kjHi-kjLo == 5
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			if row5 {
				for c := 0; c < g.InC; c++ {
					xo := c*ihw + (r0+kiLo)*g.InW + c0
					wo := (c*kk + kiLo*5) * 8
					for ki := kiLo; ki < kiHi; ki++ {
						xr := (*[5]float64)(xs[xo : xo+5])
						wr := (*[40]float64)(wpk[wo : wo+40])
						xv := xr[0]
						s0 += wr[0] * xv
						s1 += wr[1] * xv
						s2 += wr[2] * xv
						s3 += wr[3] * xv
						s4 += wr[4] * xv
						s5 += wr[5] * xv
						s6 += wr[6] * xv
						s7 += wr[7] * xv
						xv = xr[1]
						s0 += wr[8] * xv
						s1 += wr[9] * xv
						s2 += wr[10] * xv
						s3 += wr[11] * xv
						s4 += wr[12] * xv
						s5 += wr[13] * xv
						s6 += wr[14] * xv
						s7 += wr[15] * xv
						xv = xr[2]
						s0 += wr[16] * xv
						s1 += wr[17] * xv
						s2 += wr[18] * xv
						s3 += wr[19] * xv
						s4 += wr[20] * xv
						s5 += wr[21] * xv
						s6 += wr[22] * xv
						s7 += wr[23] * xv
						xv = xr[3]
						s0 += wr[24] * xv
						s1 += wr[25] * xv
						s2 += wr[26] * xv
						s3 += wr[27] * xv
						s4 += wr[28] * xv
						s5 += wr[29] * xv
						s6 += wr[30] * xv
						s7 += wr[31] * xv
						xv = xr[4]
						s0 += wr[32] * xv
						s1 += wr[33] * xv
						s2 += wr[34] * xv
						s3 += wr[35] * xv
						s4 += wr[36] * xv
						s5 += wr[37] * xv
						s6 += wr[38] * xv
						s7 += wr[39] * xv
						xo += g.InW
						wo += 40
					}
				}
			} else {
				for c := 0; c < g.InC; c++ {
					for ki := kiLo; ki < kiHi; ki++ {
						xo := c*ihw + (r0+ki)*g.InW + c0
						wo := (c*kk + ki*g.KW) * 8
						wr := wpk[wo+kjLo*8 : wo+kjHi*8]
						for t, xv := range xs[xo+kjLo : xo+kjHi] {
							wq := wr[t*8 : t*8+8]
							s0 += wq[0] * xv
							s1 += wq[1] * xv
							s2 += wq[2] * xv
							s3 += wq[3] * xv
							s4 += wq[4] * xv
							s5 += wq[5] * xv
							s6 += wq[6] * xv
							s7 += wq[7] * xv
						}
					}
				}
			}
			q := oi*g.OutW + oj
			o0[q], o1[q], o2[q], o3[q] = s0+bias[0], s1+bias[1], s2+bias[2], s3+bias[3]
			o4[q], o5[q], o6[q], o7[q] = s4+bias[4], s5+bias[5], s6+bias[6], s7+bias[7]
		}
	}
}

// convOS6 is convOS8 at six packed lanes: LeNet's stem in one pass.
func convOS6(g tensor.Conv2DGeom, out, xs, wpk, bias []float64) {
	hw := g.OutH * g.OutW
	o0, o1, o2 := out[0*hw:1*hw], out[1*hw:2*hw], out[2*hw:3*hw]
	o3, o4, o5 := out[3*hw:4*hw], out[4*hw:5*hw], out[5*hw:6*hw]
	ihw, kk := g.InH*g.InW, g.KH*g.KW
	for oi := 0; oi < g.OutH; oi++ {
		r0 := oi*g.Stride - g.Pad
		kiLo, kiHi := windowSpan(r0, g.KH, g.InH)
		for oj := 0; oj < g.OutW; oj++ {
			c0 := oj*g.Stride - g.Pad
			kjLo, kjHi := windowSpan(c0, g.KW, g.InW)
			row5 := g.KW == 5 && kjHi-kjLo == 5
			var s0, s1, s2, s3, s4, s5 float64
			if row5 {
				for c := 0; c < g.InC; c++ {
					xo := c*ihw + (r0+kiLo)*g.InW + c0
					wo := (c*kk + kiLo*5) * 6
					for ki := kiLo; ki < kiHi; ki++ {
						xr := (*[5]float64)(xs[xo : xo+5])
						wr := (*[30]float64)(wpk[wo : wo+30])
						xv := xr[0]
						s0 += wr[0] * xv
						s1 += wr[1] * xv
						s2 += wr[2] * xv
						s3 += wr[3] * xv
						s4 += wr[4] * xv
						s5 += wr[5] * xv
						xv = xr[1]
						s0 += wr[6] * xv
						s1 += wr[7] * xv
						s2 += wr[8] * xv
						s3 += wr[9] * xv
						s4 += wr[10] * xv
						s5 += wr[11] * xv
						xv = xr[2]
						s0 += wr[12] * xv
						s1 += wr[13] * xv
						s2 += wr[14] * xv
						s3 += wr[15] * xv
						s4 += wr[16] * xv
						s5 += wr[17] * xv
						xv = xr[3]
						s0 += wr[18] * xv
						s1 += wr[19] * xv
						s2 += wr[20] * xv
						s3 += wr[21] * xv
						s4 += wr[22] * xv
						s5 += wr[23] * xv
						xv = xr[4]
						s0 += wr[24] * xv
						s1 += wr[25] * xv
						s2 += wr[26] * xv
						s3 += wr[27] * xv
						s4 += wr[28] * xv
						s5 += wr[29] * xv
						xo += g.InW
						wo += 30
					}
				}
			} else {
				for c := 0; c < g.InC; c++ {
					for ki := kiLo; ki < kiHi; ki++ {
						xo := c*ihw + (r0+ki)*g.InW + c0
						wo := (c*kk + ki*g.KW) * 6
						wr := wpk[wo+kjLo*6 : wo+kjHi*6]
						for t, xv := range xs[xo+kjLo : xo+kjHi] {
							wq := wr[t*6 : t*6+6]
							s0 += wq[0] * xv
							s1 += wq[1] * xv
							s2 += wq[2] * xv
							s3 += wq[3] * xv
							s4 += wq[4] * xv
							s5 += wq[5] * xv
						}
					}
				}
			}
			q := oi*g.OutW + oj
			o0[q], o1[q], o2[q] = s0+bias[0], s1+bias[1], s2+bias[2]
			o3[q], o4[q], o5[q] = s3+bias[3], s4+bias[4], s5+bias[5]
		}
	}
}

// convOS4 is convOS8 at four packed lanes, for the narrow stems (the CIFAR
// ResNet's runs four channels at width 4).
func convOS4(g tensor.Conv2DGeom, out, xs, wpk, bias []float64) {
	hw := g.OutH * g.OutW
	o0, o1, o2, o3 := out[0*hw:1*hw], out[1*hw:2*hw], out[2*hw:3*hw], out[3*hw:4*hw]
	ihw, kk := g.InH*g.InW, g.KH*g.KW
	for oi := 0; oi < g.OutH; oi++ {
		r0 := oi*g.Stride - g.Pad
		kiLo, kiHi := windowSpan(r0, g.KH, g.InH)
		for oj := 0; oj < g.OutW; oj++ {
			c0 := oj*g.Stride - g.Pad
			kjLo, kjHi := windowSpan(c0, g.KW, g.InW)
			var s0, s1, s2, s3 float64
			for c := 0; c < g.InC; c++ {
				for ki := kiLo; ki < kiHi; ki++ {
					xo := c*ihw + (r0+ki)*g.InW + c0
					wo := (c*kk + ki*g.KW) * 4
					wr := wpk[wo+kjLo*4 : wo+kjHi*4]
					for t, xv := range xs[xo+kjLo : xo+kjHi] {
						wq := wr[t*4 : t*4+4]
						s0 += wq[0] * xv
						s1 += wq[1] * xv
						s2 += wq[2] * xv
						s3 += wq[3] * xv
					}
				}
			}
			q := oi*g.OutW + oj
			o0[q], o1[q], o2[q], o3[q] = s0+bias[0], s1+bias[1], s2+bias[2], s3+bias[3]
		}
	}
}
