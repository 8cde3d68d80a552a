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
// operand feeds several independent accumulator chains. Its convolution is
// direct, in one of two loops. On hidden feature maps it is sparse: an
// input-stationary walk that reads each input pixel once and scatters only
// the nonzero ones — padding, and the exact zeros ReLU and quantization
// leave in roughly half of every hidden feature map, multiply against
// literal zeros in the lowered matmul and are skipped here (a bitwise no-op
// for finite operands, since an accumulator that starts at +0 can never
// reach -0). On a near-dense input, such as a stem's raw pixels, it is
// output-stationary: register sums per output pixel over the kernel window,
// skipping only the padding.
type blocked struct{}

var _ Backend = blocked{}

// Name implements Backend.
func (blocked) Name() string { return "blocked" }

// Spec implements Backend.
func (blocked) Spec() string { return "blocked" }

// UsesIm2Col implements Backend: the blocked convolution consumes the cols
// workspace — not as an im2col lowering, but as the packing panel its
// register tiles read weights from.
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
	m, k := x.Shape[0], x.Shape[1]
	n := w.Shape[0]
	for i := 0; i < m; i++ {
		linearRowBlocked(dst.Data[i*n:(i+1)*n], x.Data[i*k:(i+1)*k], w.Data, bias, k, n)
	}
}

// Im2Col implements Backend by delegating to the tensor lowering.
func (blocked) Im2Col(g tensor.Conv2DGeom, cols *tensor.Tensor, x []float64) {
	g.Im2ColInto(cols, x)
}

// Conv2D implements Backend with a direct convolution in output-channel
// tiles. It counts the exact zeros of the input once per call: a near-dense
// input (at most len/convDenseZeroDiv zeros) runs the output-stationary
// loops, any other the input-stationary scatter that skips zero
// activations. Each tile's weight rows are transposed once into a p-major
// panel carved from the cols workspace (one pack amortized over every
// sample of the batch); without a workspace, or with one too narrow to hold
// a panel, the panel lives on the stack instead. Every path is
// bit-identical.
func (blocked) Conv2D(g tensor.Conv2DGeom, outC int, dst, x, w *tensor.Tensor, bias []float64, cols *tensor.Tensor) {
	conv2DCheck(g, outC, dst, x, w, bias)
	dense := denseInput(x.Data)
	if cols == nil || g.ColCols() < 8 {
		convStackPanel(g, outC, x.Shape[0], dst.Data, x.Data, w.Data, bias, dense)
		return
	}
	convTiles(g, outC, x.Shape[0], dst.Data, x.Data, w.Data, bias, cols.Data, dense)
}

// convDenseZeroDiv sets the switch between blocked's two convolution
// loops: an input with at most len/convDenseZeroDiv exact zeros runs
// output-stationary. The scatter pays a compare per input pixel and an
// output read-modify-write per term to skip zeros; the output-stationary
// loop keeps each pixel's sums in registers but multiplies every zero it
// meets. With no zeros the output-stationary loop wins on every shape
// measured (1.05–1.89×). On the narrowest stride-1 ResNet shape it meets
// the scatter at one zero in 16, and on every stride-1 ResNet shape it
// loses at 30% zeros (0.86–0.96×, see EXPERIMENTS.md). Real inputs sit far
// from the switch: raw pixels (every stem's input) have no zeros, and
// every hidden feature map measured has 23–59%.
const convDenseZeroDiv = 16

// denseInput reports whether at most len(x)/convDenseZeroDiv entries of x
// are exactly zero, stopping at the first zero past that count.
func denseInput(x []float64) bool {
	left := len(x) / convDenseZeroDiv
	for _, v := range x {
		if v == 0 {
			if left == 0 {
				return false
			}
			left--
		}
	}
	return true
}

// panelMaxKR bounds the kernel-position count (inC·kh·kw) for which
// convStackPanel packs weight panels on the stack; larger geometries run
// the unpacked single-channel kernel.
const panelMaxKR = 512

// convStackPanel is convTiles for callers without a workspace wide enough
// to pack a panel into: the parallel backend's per-sample units and plans
// whose output map is narrower than eight pixels.
func convStackPanel(g tensor.Conv2DGeom, outC, b int, dst, x, wd, bias []float64, dense bool) {
	if g.ColRows() > panelMaxKR {
		convTiles(g, outC, b, dst, x, wd, bias, nil, dense)
		return
	}
	var panel [8 * panelMaxKR]float64
	convTiles(g, outC, b, dst, x, wd, bias, panel[:], dense)
}

// convTiles computes samples [0, b) of a batched convolution: dst
// ([b, outC, OutH, OutW] flat) from x ([b, InC, InH, InW] flat), wd
// ([outC, inC·kh·kw] flat) and bias, one output-channel tile at a time. A
// tile's weight rows are packed into wpk (at least 8·inC·kh·kw long) once,
// then every sample runs the tile's kernel: output-stationary when dense,
// the scatter otherwise. Tiles are eight lanes wide while that many channels
// remain, then (dense only, so LeNet's six-channel stem runs in one pass)
// six, then four; two- and one-lane remainders run the scatter either way.
// A nil wpk runs every channel through the unpacked one-lane scatter.
func convTiles(g tensor.Conv2DGeom, outC, b int, dst, x, wd, bias, wpk []float64, dense bool) {
	kr := g.ColRows()
	hw := g.OutH * g.OutW
	sampleIn := g.InC * g.InH * g.InW
	sampleOut := outC * hw
	for oc := 0; oc < outC; {
		lanes := 1
		switch rem := outC - oc; {
		case wpk == nil:
		case rem >= 8:
			lanes = 8
		case rem >= 6 && dense:
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
			case lanes == 8 && dense:
				convOS8(g, out, xs, wpk, tb)
			case lanes == 8:
				convSP8(g, out, xs, wpk, tb, hw)
			case lanes == 6:
				convOS6(g, out, xs, wpk, tb)
			case lanes == 4 && dense:
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

// linearRowBlocked is matMulTransBRowBlocked with the bias folded into the
// final store and a zero-skip on the input activation: every dot product
// starts from +0 and can never become -0, so dropping the av == 0 terms
// (about half of a post-ReLU, post-quantization feature vector) only ever
// skips adding ±0 — bitwise the scalar fused Linear for finite inputs.
func linearRowBlocked(crow, arow, wd, bias []float64, k, n int) {
	j := 0
	for ; j+4 <= n; j += 4 {
		b0 := wd[j*k : (j+1)*k]
		b1 := wd[(j+1)*k : (j+2)*k]
		b2 := wd[(j+2)*k : (j+3)*k]
		b3 := wd[(j+3)*k : (j+4)*k]
		var s0, s1, s2, s3 float64
		for p, av := range arow {
			if av == 0 {
				continue
			}
			s0 += av * b0[p]
			s1 += av * b1[p]
			s2 += av * b2[p]
			s3 += av * b3[p]
		}
		crow[j] = s0 + bias[j]
		crow[j+1] = s1 + bias[j+1]
		crow[j+2] = s2 + bias[j+2]
		crow[j+3] = s3 + bias[j+3]
	}
	for ; j < n; j++ {
		brow := wd[j*k : (j+1)*k]
		s := 0.0
		for p, av := range arow {
			if av == 0 {
				continue
			}
			s += av * brow[p]
		}
		crow[j] = s + bias[j]
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
// an output-stationary skip does. For any fixed output element the visits
// arrive in ascending (c, ii, jj) — which is ascending im2col p order — each
// adding one term to an accumulator that starts at +0 and can never become
// -0, so after the trailing bias pass the result is bitwise the im2col +
// matmul + bias sequence for finite inputs. Any stride.
func convSP8(g tensor.Conv2DGeom, out, xs, wpk, bias []float64, hw int) {
	for i := range out {
		out[i] = 0
	}
	o0, o1, o2, o3 := out[0*hw:1*hw], out[1*hw:2*hw], out[2*hw:3*hw], out[3*hw:4*hw]
	o4, o5, o6, o7 := out[4*hw:5*hw], out[5*hw:6*hw], out[6*hw:7*hw], out[7*hw:8*hw]
	ihw := g.InH * g.InW
	s := g.Stride
	kw8 := g.KW * 8
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
				// (oi, oj) is bitwise irrelevant — free rein to pair
				// adjacent output pixels: their kernel offsets are
				// adjacent too, so one sixteen-wide panel load feeds
				// both and the loop overhead halves.
				for oi := oiMax; oi >= oiMin; oi-- {
					wb := cbase + (a-s*oi)*kw8 + (b-s*ojMax)*8
					q := oi*g.OutW + ojMax
					oj := ojMax
					if s == 1 {
						for ; oj > ojMin; oj -= 2 {
							wq := wpk[wb : wb+16]
							o0[q] += wq[0] * xv
							o1[q] += wq[1] * xv
							o2[q] += wq[2] * xv
							o3[q] += wq[3] * xv
							o4[q] += wq[4] * xv
							o5[q] += wq[5] * xv
							o6[q] += wq[6] * xv
							o7[q] += wq[7] * xv
							o0[q-1] += wq[8] * xv
							o1[q-1] += wq[9] * xv
							o2[q-1] += wq[10] * xv
							o3[q-1] += wq[11] * xv
							o4[q-1] += wq[12] * xv
							o5[q-1] += wq[13] * xv
							o6[q-1] += wq[14] * xv
							o7[q-1] += wq[15] * xv
							wb += 16
							q -= 2
						}
					}
					for ; oj >= ojMin; oj-- {
						wq := wpk[wb : wb+8]
						o0[q] += wq[0] * xv
						o1[q] += wq[1] * xv
						o2[q] += wq[2] * xv
						o3[q] += wq[3] * xv
						o4[q] += wq[4] * xv
						o5[q] += wq[5] * xv
						o6[q] += wq[6] * xv
						o7[q] += wq[7] * xv
						wb += 8 * s
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

// convSP4 is convSP8 at four packed lanes, covering the narrow models (the
// CIFAR ResNet's early stages run four channels total).
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

// convSP2 is convSP8 at two packed lanes, for the channel-count remainders.
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
// offsets [lo, hi) read real input, the rest read padding. hi ≥ lo.
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
// for inputs with no zeros to skip. Any stride.
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
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
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
			var s0, s1, s2, s3, s4, s5 float64
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
