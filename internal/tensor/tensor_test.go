package tensor

import (
	"math"
	"testing"

	"swim/internal/rng"
)

func TestNewAndSize(t *testing.T) {
	a := New(2, 3, 4)
	if a.Size() != 24 || len(a.Data) != 24 {
		t.Fatalf("size = %d", a.Size())
	}
	if a.Dim(1) != 3 {
		t.Fatalf("dim = %d", a.Dim(1))
	}
}

func TestAtSetOffset(t *testing.T) {
	a := New(2, 3)
	a.Set(7, 1, 2)
	if a.At(1, 2) != 7 || a.Data[5] != 7 {
		t.Fatal("row-major At/Set broken")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := New(2, 3)
	b := a.Reshape(3, 2)
	b.Data[0] = 9
	if a.Data[0] != 9 {
		t.Fatal("reshape must share backing data")
	}
}

// TestReshapeRejectsMismatch is the regression test for the silent-aliasing
// bug: Reshape must refuse any shape whose element product differs from the
// tensor's, and any non-positive dimension (two negative dims can otherwise
// multiply to a "matching" product and alias the data under a bogus shape).
func TestReshapeRejectsMismatch(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	a := New(2, 2)
	mustPanic("size change", func() { a.Reshape(2, 3) })
	mustPanic("negative dims with matching product", func() { a.Reshape(-2, -2) })
	mustPanic("zero dim", func() { a.Reshape(0, 4) })
}

func TestCloneIsDeep(t *testing.T) {
	a := New(4)
	a.Fill(1)
	b := a.Clone()
	b.Data[0] = 5
	if a.Data[0] != 1 {
		t.Fatal("clone must not share data")
	}
}

func TestElementwise(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	a.Add(b)
	if a.Data[2] != 9 {
		t.Fatal("Add")
	}
	a.Sub(b)
	if a.Data[0] != 1 {
		t.Fatal("Sub")
	}
	a.Mul(b)
	if a.Data[1] != 10 {
		t.Fatal("Mul")
	}
	a.Scale(0.5)
	if a.Data[1] != 5 {
		t.Fatal("Scale")
	}
	a.AddScaled(2, b)
	if a.Data[0] != 2+8 {
		t.Fatal("AddScaled")
	}
}

func TestDotSumSquaresAbsMaxArgmax(t *testing.T) {
	a := FromSlice([]float64{1, -4, 3}, 3)
	b := FromSlice([]float64{2, 1, 1}, 3)
	if a.Dot(b) != 1 {
		t.Fatalf("dot = %v", a.Dot(b))
	}
	if a.SumSquares() != 26 {
		t.Fatalf("ss = %v", a.SumSquares())
	}
	if a.AbsMax() != 4 {
		t.Fatalf("absmax = %v", a.AbsMax())
	}
	if a.Argmax() != 2 {
		t.Fatalf("argmax = %d", a.Argmax())
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			c.Set(s, i, j)
		}
	}
	return c
}

func randT(r *rng.Source, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = r.Gauss(0, 1)
	}
	return t
}

func tensorsClose(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestConvGeom(t *testing.T) {
	g := NewConv2DGeom(3, 32, 32, 3, 3, 1, 1)
	if g.OutH != 32 || g.OutW != 32 {
		t.Fatalf("same-pad geometry wrong: %+v", g)
	}
	g2 := NewConv2DGeom(1, 28, 28, 5, 5, 1, 0)
	if g2.OutH != 24 || g2.OutW != 24 {
		t.Fatalf("valid geometry wrong: %+v", g2)
	}
	g3 := NewConv2DGeom(8, 16, 16, 3, 3, 2, 1)
	if g3.OutH != 8 || g3.OutW != 8 {
		t.Fatalf("strided geometry wrong: %+v", g3)
	}
}

// naiveConv computes a direct convolution for cross-checking im2col+matmul.
func naiveConv(x *Tensor, w *Tensor, g Conv2DGeom) *Tensor {
	outC := w.Shape[0]
	out := New(outC, g.OutH, g.OutW)
	for oc := 0; oc < outC; oc++ {
		for oi := 0; oi < g.OutH; oi++ {
			for oj := 0; oj < g.OutW; oj++ {
				s := 0.0
				for c := 0; c < g.InC; c++ {
					for ki := 0; ki < g.KH; ki++ {
						for kj := 0; kj < g.KW; kj++ {
							ii := oi*g.Stride - g.Pad + ki
							jj := oj*g.Stride - g.Pad + kj
							if ii < 0 || ii >= g.InH || jj < 0 || jj >= g.InW {
								continue
							}
							s += x.At(c, ii, jj) * w.At(oc, c, ki, kj)
						}
					}
				}
				out.Set(s, oc, oi, oj)
			}
		}
	}
	return out
}

func TestIm2ColMatchesDirectConv(t *testing.T) {
	r := rng.New(5)
	cases := []Conv2DGeom{
		NewConv2DGeom(2, 8, 8, 3, 3, 1, 1),
		NewConv2DGeom(1, 10, 10, 5, 5, 1, 0),
		NewConv2DGeom(3, 9, 9, 3, 3, 2, 1),
		NewConv2DGeom(4, 7, 5, 3, 3, 1, 1), // non-square input
	}
	for _, g := range cases {
		x := randT(r, g.InC, g.InH, g.InW)
		outC := 3
		w := randT(r, outC, g.InC, g.KH, g.KW)
		cols := New(g.ColRows(), g.ColCols())
		g.Im2ColInto(cols, x.Data)
		wm := w.Reshape(outC, g.ColRows())
		got := naiveMatMul(wm, cols).Reshape(outC, g.OutH, g.OutW)
		if !tensorsClose(got, naiveConv(x, w, g), 1e-10) {
			t.Fatalf("im2col conv mismatch for %+v", g)
		}
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// <im2col(x), y> == <x, col2im(y)> for all x, y: the defining property of
	// an adjoint pair, which is exactly what backprop correctness requires.
	r := rng.New(6)
	g := NewConv2DGeom(2, 6, 6, 3, 3, 2, 1)
	x := randT(r, g.InC*g.InH*g.InW)
	y := randT(r, g.ColRows(), g.ColCols())
	cols := New(g.ColRows(), g.ColCols())
	g.Im2ColInto(cols, x.Data)
	lhs := cols.Dot(y)
	back := make([]float64, g.InC*g.InH*g.InW)
	g.Col2ImAdd(back, y)
	rhs := 0.0
	for i, v := range back {
		rhs += v * x.Data[i]
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestPanicsOnShapeMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"Add":       func() { New(2).Add(New(3)) },
		"Reshape":   func() { New(2, 3).Reshape(7) },
		"FromSlice": func() { FromSlice(make([]float64, 5), 2, 3) },
		"BadIndex":  func() { New(2, 2).At(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic on mismatch", name)
				}
			}()
			fn()
		}()
	}
}
