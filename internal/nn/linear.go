package nn

import (
	"fmt"
	"math"

	"swim/internal/kernel"
	"swim/internal/rng"
	"swim/internal/tensor"
)

// Linear is a fully connected layer: O = P·Wᵀ + b for a batch of row
// vectors P ([B, in]). W is [out, in] so that row j holds the fan-in of
// output j — the same orientation a crossbar column uses.
//
// Backward at orders 1 and 2 (paper Eq. 8, 10, 12, 13, batched over
// samples):
//
//	df/dW_ji   = Σ_b  df/dO_bj · P_bi          (Eq. 12)
//	df/dI_bi   = Σ_j  W_ji · df/dO_bj          (Eq. 13)
//	d²f/dW²_ji = Σ_b  d²f/dO²_bj · P_bi²       (Eq. 8)
//	d²f/dI²_bi = Σ_j  W_ji² · d²f/dO²_bj       (Eq. 10; the activation-
//	             derivative factors live in the activation layers)
type Linear struct {
	name    string
	In, Out int
	W, B    *Param

	x *tensor.Tensor // Forward's input [B, in], in the caller's scratch
}

// NewLinear builds a fully connected layer with Kaiming-uniform-ish
// initialization from r.
func NewLinear(name string, in, out int, r *rng.Source) *Linear {
	l := &Linear{name: name, In: in, Out: out,
		W: newParam(name+".W", out, in),
		B: newParam(name+".B", out),
	}
	l.W.Mapped = true
	std := 1.0 / float64(in)
	for i := range l.W.Data.Data {
		l.W.Data.Data[i] = r.Gauss(0, 1) * stdScale(std)
	}
	return l
}

// stdScale converts a fan-in variance target to a std (sqrt(2/fanIn) Kaiming
// for ReLU networks, expressed via the 1/fanIn variance argument).
func stdScale(invFan float64) float64 {
	return math.Sqrt(2 * invFan)
}

// Name implements Layer.
func (l *Linear) Name() string { return l.name }

// Forward implements Layer as a thin wrapper over ForwardInto that
// additionally keeps the input for Backward.
func (l *Linear) Forward(x *tensor.Tensor, _ bool, a *tensor.Arena) *tensor.Tensor {
	checkBatched(x, 2, l.name)
	l.x = x
	out := a.Alloc(x.Shape[0], l.Out)
	l.ForwardInto(out, x, nil, kernel.Default())
	return out
}

// OutShape implements Layer.
func (l *Linear) OutShape(in []int) ([]int, error) {
	if len(in) != 2 || in[1] != l.In {
		return nil, fmt.Errorf("%s: want input shape [B %d], got %v", l.name, l.In, in)
	}
	return []int{in[0], l.Out}, nil
}

// ForwardInto implements Layer: the fused bias+matmul primitive
// dst = x·Wᵀ + b, which every backend computes bit-identically to the
// historical separate matmul and bias passes.
func (l *Linear) ForwardInto(dst, x *tensor.Tensor, _ *tensor.Arena, k kernel.Backend) {
	k.Linear(dst, x, l.W.Data, l.B.Data.Data)
}

// Backward implements Layer. Order 2 runs the order-1 products on the
// squared input and squared weights, both carved from a.
func (l *Linear) Backward(dOut *tensor.Tensor, order int, a *tensor.Arena) *tensor.Tensor {
	k := kernel.Default()
	dW, dB := l.W.acc(order), l.B.acc(order)
	x, w := l.x, l.W.Data
	if order == 2 {
		x, w = squared(a, x), squared(a, w)
	}
	b := dOut.Shape[0]
	// dW += dOutᵀ · x   ([out, in])
	k.MatMulTransA(dW, dOut, x, true)
	// db += column sums of dOut (dO/db = 1, d²O/db² = 0)
	for bi := 0; bi < b; bi++ {
		for j, v := range dOut.Data[bi*l.Out : (bi+1)*l.Out] {
			dB.Data[j] += v
		}
	}
	// dx = dOut · w   ([B, in])
	dIn := a.Alloc(b, l.In)
	k.MatMul(dIn, dOut, w, false)
	return dIn
}

func (l *Linear) drop() { l.x = nil }

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// Clone implements Layer.
func (l *Linear) Clone() Layer {
	return &Linear{name: l.name, In: l.In, Out: l.Out, W: l.W.clone(), B: l.B.clone()}
}
