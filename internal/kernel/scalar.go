package kernel

import (
	"swim/internal/tensor"
)

// scalar is the reference backend: the plain single-threaded loops that fix
// the observable floating-point behavior of every primitive. Every other
// backend is pinned bit-for-bit against it.
type scalar struct{}

// Name implements Backend.
func (scalar) Name() string { return "scalar" }

// Spec implements Backend.
func (scalar) Spec() string { return "scalar" }

// UsesIm2Col implements Backend: the scalar convolution is the historical
// im2col + matmul lowering.
func (scalar) UsesIm2Col() bool { return true }

// MatMul implements Backend with the i-k-j loop: the inner loop streams a
// row of B into a row of C, and zero left-hand terms are skipped.
func (scalar) MatMul(c, a, b *tensor.Tensor, accumulate bool) {
	m, k, n := matMulDims(c, a, b)
	if !accumulate {
		c.Zero()
	}
	ad, bd, cd := a.Data, b.Data, c.Data
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := bd[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// MatMulTransA implements Backend with the p-i-j loop over the rows of A
// and B, skipping zero left-hand terms.
func (scalar) MatMulTransA(c, a, b *tensor.Tensor, accumulate bool) {
	m, k, n := matMulTransADims(c, a, b)
	if !accumulate {
		c.Zero()
	}
	ad, bd, cd := a.Data, b.Data, c.Data
	for p := 0; p < k; p++ {
		arow := ad[p*m : (p+1)*m]
		brow := bd[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := cd[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// MatMulTransB implements Backend with one dot product per element: a row
// of A against a row of B, summed from +0 and then added into C.
func (scalar) MatMulTransB(c, a, b *tensor.Tensor, accumulate bool) {
	m, k, n := matMulTransBDims(c, a, b)
	if !accumulate {
		c.Zero()
	}
	ad, bd, cd := a.Data, b.Data, c.Data
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			crow[j] += s
		}
	}
}

// Linear implements Backend. The loop is MatMulTransB's dot-product kernel
// with the bias folded into the final store: each element's k-sum s
// accumulates exactly as before, and s + bias[j] is bitwise the historical
// (0 + s) + bias[j] of the separate matmul and bias passes, because s can
// never be -0 (a sum starting from +0 only turns negative through a nonzero
// term).
func (scalar) Linear(dst, x, w *tensor.Tensor, bias []float64) {
	linearCheck(dst, x, w, bias)
	m, k := x.Shape[0], x.Shape[1]
	n := w.Shape[0]
	ad, bd, cd := x.Data, w.Data, dst.Data
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			crow[j] = s + bias[j]
		}
	}
}

// Im2Col implements Backend by delegating to the tensor lowering.
func (scalar) Im2Col(g tensor.Conv2DGeom, cols *tensor.Tensor, x []float64) {
	g.Im2ColInto(cols, x)
}

// Conv2D implements Backend: per-sample im2col followed by MatMul's i-k-j
// loop over the lowered matrix, then the bias broadcast over spatial
// positions — the historical Conv2D.ForwardInto sequence, element for
// element. The matmul runs inline on raw slices so no tensor headers are
// allocated per call.
func (scalar) Conv2D(g tensor.Conv2DGeom, outC int, dst, x, w *tensor.Tensor, bias []float64, cols *tensor.Tensor) {
	conv2DCheck(g, outC, dst, x, w, bias)
	b := x.Shape[0]
	kr, nc := g.ColRows(), g.ColCols()
	sampleIn := g.InC * g.InH * g.InW
	sampleOut := outC * nc
	wd := w.Data
	for bi := 0; bi < b; bi++ {
		g.Im2ColInto(cols, x.Data[bi*sampleIn:(bi+1)*sampleIn])
		out := dst.Data[bi*sampleOut : (bi+1)*sampleOut]
		for i := range out {
			out[i] = 0
		}
		cd := cols.Data
		for i := 0; i < outC; i++ {
			arow := wd[i*kr : (i+1)*kr]
			crow := out[i*nc : (i+1)*nc]
			for p := 0; p < kr; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := cd[p*nc : (p+1)*nc]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
	// Broadcast bias across spatial positions.
	hw := g.OutH * g.OutW
	for bi := 0; bi < b; bi++ {
		for oc := 0; oc < outC; oc++ {
			bv := bias[oc]
			seg := dst.Data[(bi*outC+oc)*hw : (bi*outC+oc+1)*hw]
			for i := range seg {
				seg[i] += bv
			}
		}
	}
}

// linearCheck validates the fused fully connected shapes: dst [B, out],
// x [B, in], w [out, in], bias [out].
func linearCheck(dst, x, w *tensor.Tensor, bias []float64) {
	if len(x.Shape) != 2 || len(w.Shape) != 2 || len(dst.Shape) != 2 {
		panic("kernel: Linear requires rank-2 operands")
	}
	m, k := x.Shape[0], x.Shape[1]
	n, k2 := w.Shape[0], w.Shape[1]
	if k != k2 || dst.Shape[0] != m || dst.Shape[1] != n || len(bias) != n {
		panic("kernel: Linear shape mismatch")
	}
}

// conv2DCheck validates the batched convolution shapes against the geometry.
func conv2DCheck(g tensor.Conv2DGeom, outC int, dst, x, w *tensor.Tensor, bias []float64) {
	if len(x.Shape) != 4 || x.Shape[1] != g.InC || x.Shape[2] != g.InH || x.Shape[3] != g.InW {
		panic("kernel: Conv2D input shape mismatch")
	}
	if len(dst.Shape) != 4 || dst.Shape[0] != x.Shape[0] || dst.Shape[1] != outC ||
		dst.Shape[2] != g.OutH || dst.Shape[3] != g.OutW {
		panic("kernel: Conv2D output shape mismatch")
	}
	if len(w.Shape) != 2 || w.Shape[0] != outC || w.Shape[1] != g.ColRows() || len(bias) != outC {
		panic("kernel: Conv2D weight shape mismatch")
	}
}
