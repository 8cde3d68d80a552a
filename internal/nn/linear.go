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
// Backward passes (paper Eq. 8, 10, 12, 13, batched over samples):
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

	x *tensor.Tensor // cached input [B, in]
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
// additionally caches the input for the backward passes.
func (l *Linear) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	checkBatched(x, 2, l.name)
	l.x = x
	out := tensor.New(x.Shape[0], l.Out)
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

// Backward implements Layer.
func (l *Linear) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	b := gradOut.Shape[0]
	// dW += gradOutᵀ · x   ([out, in])
	tensor.MatMulTransAInto(l.W.Grad, gradOut, l.x, true)
	// db += column sums of gradOut
	for bi := 0; bi < b; bi++ {
		row := gradOut.Data[bi*l.Out : (bi+1)*l.Out]
		for j, v := range row {
			l.B.Grad.Data[j] += v
		}
	}
	// dx = gradOut · W   ([B, in])
	gradIn := tensor.New(b, l.In)
	tensor.MatMulInto(gradIn, gradOut, l.W.Data, false)
	return gradIn
}

// BackwardSecond implements Layer.
func (l *Linear) BackwardSecond(hessOut *tensor.Tensor) *tensor.Tensor {
	b := hessOut.Shape[0]
	// Squared input and squared weights drive both accumulations.
	x2 := l.x.Clone()
	for i, v := range x2.Data {
		x2.Data[i] = v * v
	}
	// HessW += hessOutᵀ · x²   (Eq. 8 summed over the batch)
	tensor.MatMulTransAInto(l.W.Hess, hessOut, x2, true)
	// Hess b += column sums (d²O/db² = 0, dO/db = 1)
	for bi := 0; bi < b; bi++ {
		row := hessOut.Data[bi*l.Out : (bi+1)*l.Out]
		for j, v := range row {
			l.B.Hess.Data[j] += v
		}
	}
	// hessIn = hessOut · W²   (Eq. 10 core; activation factor handled by the
	// activation layer that precedes this one)
	w2 := l.W.Data.Clone()
	for i, v := range w2.Data {
		w2.Data[i] = v * v
	}
	hessIn := tensor.New(b, l.In)
	tensor.MatMulInto(hessIn, hessOut, w2, false)
	return hessIn
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// Clone implements Layer.
func (l *Linear) Clone() Layer {
	return &Linear{name: l.name, In: l.In, Out: l.Out, W: l.W.clone(), B: l.B.clone()}
}
