package nn

import (
	"math"
	"testing"

	"swim/internal/rng"
	"swim/internal/tensor"
)

func TestSigmoidForwardValues(t *testing.T) {
	s := NewSigmoid()
	x := tensor.FromSlice([]float64{0, 100, -100}, 1, 3)
	y := s.Forward(x, false, tensor.NewArena())
	if math.Abs(y.Data[0]-0.5) > 1e-12 || y.Data[1] < 0.999 || y.Data[2] > 0.001 {
		t.Fatalf("sigmoid = %v", y.Data)
	}
}

func TestTanhForwardValues(t *testing.T) {
	y := NewTanh().Forward(tensor.FromSlice([]float64{0, 5, -5}, 1, 3), false, tensor.NewArena())
	if y.Data[0] != 0 || y.Data[1] < 0.999 || y.Data[2] > -0.999 {
		t.Fatalf("tanh = %v", y.Data)
	}
}

func smoothGradCheck(t *testing.T, act Layer, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	net := NewNetwork("smooth", NewSequential("trunk",
		NewLinear("fc1", 4, 6, r), act, NewLinear("fc2", 6, 3, r),
	), NewSoftmaxCrossEntropy())
	x := randInput(r, 3, 4)
	checkGrads(t, net, x, []int{0, 1, 2}, false, 1e-5)
}

func TestSigmoidGradFD(t *testing.T) { smoothGradCheck(t, NewSigmoid(), 31) }
func TestTanhGradFD(t *testing.T)    { smoothGradCheck(t, NewTanh(), 32) }

// With the L2 loss directly above an elementwise smooth activation, the
// curvature-aware rule is exact: d²f/dI² = g′²·d²f/dP² + g″·df/dP has no
// dropped cross terms for a single linear layer below.
func smoothHessCheck(t *testing.T, act Layer, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	net := NewNetwork("smooth", NewSequential("trunk",
		NewLinear("fc", 4, 5, r), act,
	), NewL2Loss())
	x := randInput(r, 3, 4)
	labels := []int{0, 2, 4}
	net.ZeroHess()
	net.AccumulateHessianFull(x, labels, tensor.NewArena())
	for _, p := range net.Params() {
		for i := range p.Data.Data {
			got := p.Hess.Data[i]
			want := fdHess(net, p, i, x, labels, 1e-4)
			if math.Abs(got-want) > 2e-3*(1+math.Abs(want)) {
				t.Fatalf("%s %s[%d]: analytic %.8g vs FD %.8g", act.Name(), p.Name, i, got, want)
			}
		}
	}
}

func TestSigmoidHessianExactWithL2(t *testing.T) { smoothHessCheck(t, NewSigmoid(), 33) }
func TestTanhHessianExactWithL2(t *testing.T)    { smoothHessCheck(t, NewTanh(), 34) }

func TestSmoothActRequiresBackwardFirst(t *testing.T) {
	s := NewSigmoid()
	x := tensor.FromSlice([]float64{1, 2}, 1, 2)
	s.Forward(x, false, tensor.NewArena())
	defer func() {
		if recover() == nil {
			t.Fatal("order-2 Backward without order 1 should panic for curved activations")
		}
	}()
	s.Backward(tensor.FromSlice([]float64{1, 1}, 1, 2), 2, tensor.NewArena())
}

func TestSmoothCloneIndependent(t *testing.T) {
	s := NewTanh()
	x := tensor.FromSlice([]float64{1}, 1, 1)
	s.Forward(x, false, tensor.NewArena())
	c := s.Clone().(*Tanh)
	if c.out != nil {
		t.Fatal("clone inherited caches")
	}
}

// The ReLU shortcut (AccumulateHessian without a gradient pass) and the full
// pass must agree on ReLU-only networks, confirming the g″ term is the only
// difference.
func TestFullAndFastHessianAgreeOnReLU(t *testing.T) {
	r := rng.New(35)
	build := func() *Network {
		rr := rng.New(36)
		return NewNetwork("mlp", NewSequential("trunk",
			NewLinear("fc1", 5, 7, rr), NewReLU(), NewLinear("fc2", 7, 3, rr),
		), NewSoftmaxCrossEntropy())
	}
	x := randInput(r, 4, 5)
	labels := []int{0, 1, 2, 0}
	a, b := build(), build()
	a.ZeroHess()
	a.AccumulateHessian(x, labels, tensor.NewArena())
	b.ZeroHess()
	b.AccumulateHessianFull(x, labels, tensor.NewArena())
	pa, pb := a.Params(), b.Params()
	for k := range pa {
		for i := range pa[k].Hess.Data {
			if math.Abs(pa[k].Hess.Data[i]-pb[k].Hess.Data[i]) > 1e-12 {
				t.Fatal("fast and full Hessian passes disagree on a ReLU network")
			}
		}
	}
}
