package nn

import (
	"math"

	"swim/internal/kernel"
	"swim/internal/tensor"
)

// smoothAct is an elementwise activation with non-zero curvature. Unlike
// ReLU, the paper's Eq. 9 keeps both terms here:
//
//	d²f/dI² = g′(I)² · d²f/dP²  −  g″(I) · df/dI ... (sign per Eq. 9)
//
// which, written against the upstream quantities this layer receives, is
//
//	hessIn = g′(I)²·hessOut + g″(I)·gradOut
//
// (the chain rule for second derivatives of a composition; Eq. 9's form has
// the first-derivative term folded through df/dI = g′·df/dP). Because the
// curvature term consumes df/dP, the order-1 Backward must run before the
// order-2 one for these layers; the implementation keeps the order-1 dOut,
// which must still be valid then (its caller's arena not reset), and
// enforces the order.
type smoothAct struct {
	name string
	fn   func(float64) float64
	d1   func(y float64) float64 // g′ expressed in terms of the output y
	d2   func(y float64) float64 // g″ expressed in terms of the output y

	// Forward's output and the order-1 Backward's dOut, in the caller's
	// scratch.
	out     *tensor.Tensor
	gradOut *tensor.Tensor
}

// Name implements Layer.
func (s *smoothAct) Name() string { return s.name }

// Forward implements Layer as a thin wrapper over ForwardInto that
// additionally keeps the output for Backward.
func (s *smoothAct) Forward(x *tensor.Tensor, _ bool, a *tensor.Arena) *tensor.Tensor {
	out := a.Alloc(x.Shape...)
	s.ForwardInto(out, x, a, nil)
	s.out = out
	s.gradOut = nil
	return out
}

// OutShape implements Layer.
func (s *smoothAct) OutShape(in []int) ([]int, error) { return in, nil }

// ForwardInto implements Layer.
func (s *smoothAct) ForwardInto(dst, x *tensor.Tensor, _ *tensor.Arena, _ kernel.Backend) {
	for i, v := range x.Data {
		dst.Data[i] = s.fn(v)
	}
}

// Backward implements Layer. Order 1 scales by g′ and caches dOut; order 2
// requires that preceding order-1 call on the same forward pass (the
// curvature term needs df/dP).
func (s *smoothAct) Backward(dOut *tensor.Tensor, order int, a *tensor.Arena) *tensor.Tensor {
	dIn := a.Alloc(dOut.Shape...)
	if order == 1 {
		s.gradOut = dOut
		for i, d := range dOut.Data {
			dIn.Data[i] = d * s.d1(s.out.Data[i])
		}
		return dIn
	}
	if s.gradOut == nil {
		panic("nn: " + s.name + " order-2 Backward requires order 1 first (curvature term needs df/dP)")
	}
	for i, h := range dOut.Data {
		y := s.out.Data[i]
		g1 := s.d1(y)
		dIn.Data[i] = g1*g1*h + s.d2(y)*s.gradOut.Data[i]
	}
	return dIn
}

func (s *smoothAct) drop() { s.out, s.gradOut = nil, nil }

// Params implements Layer.
func (s *smoothAct) Params() []*Param { return nil }

// Sigmoid is the logistic activation with the full curvature-aware second
// derivative backprop (Eq. 9 with g″ ≠ 0).
type Sigmoid struct{ smoothAct }

// NewSigmoid returns a sigmoid activation layer.
func NewSigmoid() *Sigmoid {
	s := &Sigmoid{}
	s.name = "sigmoid"
	s.fn = func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	s.d1 = func(y float64) float64 { return y * (1 - y) }
	s.d2 = func(y float64) float64 { return y * (1 - y) * (1 - 2*y) }
	return s
}

// Clone implements Layer.
func (s *Sigmoid) Clone() Layer { return NewSigmoid() }

// Tanh is the hyperbolic-tangent activation with the full curvature-aware
// second derivative backprop.
type Tanh struct{ smoothAct }

// NewTanh returns a tanh activation layer.
func NewTanh() *Tanh {
	t := &Tanh{}
	t.name = "tanh"
	t.fn = math.Tanh
	t.d1 = func(y float64) float64 { return 1 - y*y }
	t.d2 = func(y float64) float64 { return -2 * y * (1 - y*y) }
	return t
}

// Clone implements Layer.
func (t *Tanh) Clone() Layer { return NewTanh() }
