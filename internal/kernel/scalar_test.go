package kernel

import (
	"math"
	"testing"
	"testing/quick"

	"swim/internal/rng"
	"swim/internal/tensor"
)

// The scalar backend's matmul values against textbook loops. The other
// backends are pinned bit for bit to scalar by the *VariantsBitIdentical
// tests, so these checks cover them too.

func naiveMatMul(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := tensor.New(m, n)
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

func transpose(a *tensor.Tensor) *tensor.Tensor {
	m, n := a.Shape[0], a.Shape[1]
	t := tensor.New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t.Set(a.At(i, j), j, i)
		}
	}
	return t
}

func randT(r *rng.Source, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = r.Gauss(0, 1)
	}
	return t
}

func tensorsClose(a, b *tensor.Tensor, tol float64) bool {
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

// matMul allocates C = A·B on the scalar backend.
func matMul(a, b *tensor.Tensor) *tensor.Tensor {
	c := tensor.New(a.Shape[0], b.Shape[1])
	scalar{}.MatMul(c, a, b, false)
	return c
}

func TestMatMulAgainstNaive(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a, b := randT(r, m, k), randT(r, k, n)
		if !tensorsClose(matMul(a, b), naiveMatMul(a, b), 1e-10) {
			t.Fatalf("MatMul mismatch for %dx%dx%d", m, k, n)
		}
	}
}

func TestMatMulAccumulate(t *testing.T) {
	r := rng.New(2)
	a, b := randT(r, 3, 4), randT(r, 4, 5)
	c := tensor.New(3, 5)
	c.Fill(1)
	scalar{}.MatMul(c, a, b, true)
	want := naiveMatMul(a, b)
	for i := range want.Data {
		want.Data[i]++
	}
	if !tensorsClose(c, want, 1e-10) {
		t.Fatal("accumulate mode broken")
	}
}

func TestMatMulTransA(t *testing.T) {
	r := rng.New(3)
	a, b := randT(r, 6, 3), randT(r, 6, 4) // C = A^T B is 3x4
	c := tensor.New(3, 4)
	scalar{}.MatMulTransA(c, a, b, false)
	if !tensorsClose(c, naiveMatMul(transpose(a), b), 1e-10) {
		t.Fatal("MatMulTransA mismatch")
	}
}

func TestMatMulTransB(t *testing.T) {
	r := rng.New(4)
	a, b := randT(r, 3, 6), randT(r, 4, 6) // C = A B^T is 3x4
	c := tensor.New(3, 4)
	scalar{}.MatMulTransB(c, a, b, false)
	if !tensorsClose(c, naiveMatMul(a, transpose(b)), 1e-10) {
		t.Fatal("MatMulTransB mismatch")
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	// (A·B)·C == A·(B·C) within fp tolerance — a structural property check.
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		a, b, c := randT(r, 4, 3), randT(r, 3, 5), randT(r, 5, 2)
		left := matMul(matMul(a, b), c)
		right := matMul(a, matMul(b, c))
		return tensorsClose(left, right, 1e-9)
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulPanicsOnShapeMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"MatMul":       func() { scalar{}.MatMul(tensor.New(2, 5), tensor.New(2, 3), tensor.New(4, 5), false) },
		"MatMulTransA": func() { scalar{}.MatMulTransA(tensor.New(3, 5), tensor.New(2, 3), tensor.New(4, 5), false) },
		"MatMulTransB": func() { scalar{}.MatMulTransB(tensor.New(2, 4), tensor.New(2, 3), tensor.New(4, 5), false) },
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
