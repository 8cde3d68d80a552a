// Package tensor implements the dense numeric arrays underlying every layer
// in this repository: row-major float64 tensors with shape metadata, im2col /
// col2im for convolution lowering, and the elementwise helpers the neural
// network and device-model packages need. Matrix multiplication lives in the
// compute backends of package kernel.
//
// The package is intentionally small and allocation-transparent: callers that
// sit on hot paths (Monte-Carlo evaluation) reuse destination tensors via the
// *Into variants.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float64 array with an explicit shape.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim in shape %v", shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data (not copied) with the given shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if t.Size() != len(data) {
		panic(fmt.Sprintf("tensor: shape %v incompatible with %d elements", shape, len(data)))
	}
	return t
}

// Size returns the total number of elements.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Dim returns the length of axis i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape sharing the same backing data.
// Every dimension must be positive and the element count must match exactly;
// a mismatched product panics instead of silently aliasing the backing slice
// under a wrong shape.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: reshape %v -> %v: non-positive dim %d", t.Shape, shape, d))
		}
		n *= d
	}
	if n != t.Size() {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes size (%d -> %d elements)", t.Shape, shape, t.Size(), n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At returns the element at the given multi-index (2-D fast path).
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool { return ShapeEq(t.Shape, o.Shape) }

// ShapeEq reports whether two shapes are identical.
func ShapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Add accumulates o into t elementwise.
func (t *Tensor) Add(o *Tensor) {
	mustMatch(t, o, "Add")
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Sub subtracts o from t elementwise.
func (t *Tensor) Sub(o *Tensor) {
	mustMatch(t, o, "Sub")
	for i, v := range o.Data {
		t.Data[i] -= v
	}
}

// Mul multiplies t by o elementwise (Hadamard product).
func (t *Tensor) Mul(o *Tensor) {
	mustMatch(t, o, "Mul")
	for i, v := range o.Data {
		t.Data[i] *= v
	}
}

// Scale multiplies every element by a.
func (t *Tensor) Scale(a float64) {
	for i := range t.Data {
		t.Data[i] *= a
	}
}

// AddScaled accumulates a*o into t (axpy).
func (t *Tensor) AddScaled(a float64, o *Tensor) {
	mustMatch(t, o, "AddScaled")
	for i, v := range o.Data {
		t.Data[i] += a * v
	}
}

// Dot returns the inner product of t and o viewed as flat vectors.
func (t *Tensor) Dot(o *Tensor) float64 {
	mustMatch(t, o, "Dot")
	s := 0.0
	for i, v := range t.Data {
		s += v * o.Data[i]
	}
	return s
}

// SumSquares returns the sum of squared elements.
func (t *Tensor) SumSquares() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return s
}

// AbsMax returns the maximum absolute element value (0 for empty).
func (t *Tensor) AbsMax() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Argmax returns the index of the largest element in a flat view.
func (t *Tensor) Argmax() int {
	best, bi := math.Inf(-1), 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

func mustMatch(a, b *Tensor, op string) {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

// Conv2DGeom describes a 2-D convolution lowering.
type Conv2DGeom struct {
	InC, InH, InW int
	KH, KW        int
	Stride, Pad   int
	OutH, OutW    int
}

// NewConv2DGeom computes output geometry for the given input and kernel.
func NewConv2DGeom(inC, inH, inW, kh, kw, stride, pad int) Conv2DGeom {
	g := Conv2DGeom{InC: inC, InH: inH, InW: inW, KH: kh, KW: kw, Stride: stride, Pad: pad}
	g.OutH = (inH+2*pad-kh)/stride + 1
	g.OutW = (inW+2*pad-kw)/stride + 1
	if g.OutH <= 0 || g.OutW <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry collapses: %+v", g))
	}
	return g
}

// ColRows returns the number of rows of the im2col matrix (inC*kh*kw).
func (g Conv2DGeom) ColRows() int { return g.InC * g.KH * g.KW }

// ColCols returns the number of columns of the im2col matrix (outH*outW).
func (g Conv2DGeom) ColCols() int { return g.OutH * g.OutW }

// Im2ColInto lowers a single image x (inC×inH×inW, flat) into cols
// (ColRows × ColCols): column p holds the receptive field of output pixel p.
// Out-of-bounds (padding) elements are 0.
func (g Conv2DGeom) Im2ColInto(cols *Tensor, x []float64) {
	if cols.Shape[0] != g.ColRows() || cols.Shape[1] != g.ColCols() {
		panic("tensor: Im2ColInto destination shape mismatch")
	}
	cd := cols.Data
	nc := g.ColCols()
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := x[c*g.InH*g.InW:]
		for ki := 0; ki < g.KH; ki++ {
			for kj := 0; kj < g.KW; kj++ {
				dst := cd[row*nc : (row+1)*nc]
				p := 0
				for oi := 0; oi < g.OutH; oi++ {
					ii := oi*g.Stride - g.Pad + ki
					if ii < 0 || ii >= g.InH {
						for oj := 0; oj < g.OutW; oj++ {
							dst[p] = 0
							p++
						}
						continue
					}
					base := ii * g.InW
					for oj := 0; oj < g.OutW; oj++ {
						jj := oj*g.Stride - g.Pad + kj
						if jj < 0 || jj >= g.InW {
							dst[p] = 0
						} else {
							dst[p] = plane[base+jj]
						}
						p++
					}
				}
				row++
			}
		}
	}
}

// Col2ImAdd scatters cols (ColRows × ColCols) back into the image gradient
// x (inC*inH*inW, flat), accumulating where receptive fields overlap. This is
// the adjoint of Im2ColInto and serves the convolution backward pass at both
// derivative orders (the paper sums second derivatives over branches the
// same way gradients are summed).
func (g Conv2DGeom) Col2ImAdd(x []float64, cols *Tensor) {
	cd := cols.Data
	nc := g.ColCols()
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := x[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for ki := 0; ki < g.KH; ki++ {
			for kj := 0; kj < g.KW; kj++ {
				src := cd[row*nc : (row+1)*nc]
				p := 0
				for oi := 0; oi < g.OutH; oi++ {
					ii := oi*g.Stride - g.Pad + ki
					if ii < 0 || ii >= g.InH {
						p += g.OutW
						continue
					}
					base := ii * g.InW
					for oj := 0; oj < g.OutW; oj++ {
						jj := oj*g.Stride - g.Pad + kj
						if jj >= 0 && jj < g.InW {
							plane[base+jj] += src[p]
						}
						p++
					}
				}
				row++
			}
		}
	}
}
