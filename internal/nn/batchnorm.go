package nn

import (
	"fmt"
	"math"

	"swim/internal/kernel"
	"swim/internal/tensor"
)

// BatchNorm2D normalizes per channel over [B, C, H, W] activations.
//
// Training mode uses batch statistics and the full batch-norm gradient;
// evaluation mode uses running statistics, making the layer an affine map
// y = (γ/σ)·x + const per channel. SWIM's sensitivity pass always runs in
// evaluation mode (the network is converged and frozen while being mapped),
// where the paper's FC-layer rule applies exactly: the second derivative
// propagates through the squared coefficient (γ/σ)². The batch-statistics
// terms of the training-mode gradient are order-1 only.
//
// γ and β live in digital peripheral registers on a CiM accelerator, not in
// NVM crossbars, so they are not Mapped and never write-verified.
type BatchNorm2D struct {
	name string
	C    int
	// Momentum is the running-statistics update rate (typical 0.1).
	Momentum float64
	// Eps stabilizes 1/sqrt(var).
	Eps float64

	Gamma, Beta *Param
	RunMean     *tensor.Tensor
	RunVar      *tensor.Tensor

	// What Forward leaves for Backward, in the caller's scratch.
	trainMode bool
	xhat      *tensor.Tensor // normalized input, in the input's shape
	invStd    []float64      // per-channel 1/sqrt(var+eps) actually used
}

// NewBatchNorm2D builds a batch-norm layer for c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		name: name, C: c, Momentum: 0.1, Eps: 1e-5,
		Gamma: newParam(name+".gamma", c), Beta: newParam(name+".beta", c),
		RunMean: tensor.New(c), RunVar: tensor.New(c),
	}
	bn.Gamma.Data.Fill(1)
	bn.RunVar.Fill(1)
	return bn
}

// Name implements Layer.
func (bn *BatchNorm2D) Name() string { return bn.name }

// Forward implements Layer.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool, a *tensor.Arena) *tensor.Tensor {
	checkBatched(x, 4, bn.name)
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if c != bn.C {
		panic("nn: BatchNorm2D channel mismatch")
	}
	bn.trainMode = train
	hw := h * w
	n := float64(b * hw)

	mean := a.AllocFloats(c)
	variance := a.AllocFloats(c)
	if train {
		for ci := 0; ci < c; ci++ {
			s := 0.0
			for bi := 0; bi < b; bi++ {
				seg := x.Data[(bi*c+ci)*hw : (bi*c+ci+1)*hw]
				for _, v := range seg {
					s += v
				}
			}
			mean[ci] = s / n
		}
		for ci := 0; ci < c; ci++ {
			s := 0.0
			for bi := 0; bi < b; bi++ {
				seg := x.Data[(bi*c+ci)*hw : (bi*c+ci+1)*hw]
				for _, v := range seg {
					d := v - mean[ci]
					s += d * d
				}
			}
			variance[ci] = s / n
			bn.RunMean.Data[ci] = (1-bn.Momentum)*bn.RunMean.Data[ci] + bn.Momentum*mean[ci]
			bn.RunVar.Data[ci] = (1-bn.Momentum)*bn.RunVar.Data[ci] + bn.Momentum*variance[ci]
		}
	} else {
		copy(mean, bn.RunMean.Data)
		copy(variance, bn.RunVar.Data)
	}

	bn.invStd = a.AllocFloats(c)
	for ci := 0; ci < c; ci++ {
		bn.invStd[ci] = 1.0 / math.Sqrt(variance[ci]+bn.Eps)
	}

	out := a.Alloc(x.Shape...)
	bn.xhat = a.Alloc(x.Shape...)
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			base := (bi*c + ci) * hw
			g, bta, m, is := bn.Gamma.Data.Data[ci], bn.Beta.Data.Data[ci], mean[ci], bn.invStd[ci]
			for i := base; i < base+hw; i++ {
				xh := (x.Data[i] - m) * is
				bn.xhat.Data[i] = xh
				out.Data[i] = g*xh + bta
			}
		}
	}
	return out
}

// OutShape implements Layer.
func (bn *BatchNorm2D) OutShape(in []int) ([]int, error) {
	if len(in) != 4 || in[1] != bn.C {
		return nil, fmt.Errorf("%s: want input shape [B %d H W], got %v", bn.name, bn.C, in)
	}
	return in, nil
}

// ForwardInto implements Layer: the frozen-statistics affine map
// y = γ·(x − μ)/σ + β per channel, computed with exactly the expressions the
// evaluation-mode Forward uses (no x̂ caching — inference only).
func (bn *BatchNorm2D) ForwardInto(dst, x *tensor.Tensor, _ *tensor.Arena, _ kernel.Backend) {
	b, c := x.Shape[0], x.Shape[1]
	hw := x.Shape[2] * x.Shape[3]
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			base := (bi*c + ci) * hw
			g, bta := bn.Gamma.Data.Data[ci], bn.Beta.Data.Data[ci]
			m := bn.RunMean.Data[ci]
			is := 1.0 / math.Sqrt(bn.RunVar.Data[ci]+bn.Eps)
			for i := base; i < base+hw; i++ {
				xh := (x.Data[i] - m) * is
				dst.Data[i] = g*xh + bta
			}
		}
	}
}

// Backward implements Layer. Per channel the layer is y = γ·x̂ + β with
// x̂ = (x − μ)·is, so β's derivative sums dOut and γ's sums dOut·x̂ (x̂²
// at order 2). The input derivative is dOut scaled by γ·is, or (γ·is)² at
// order 2; in training mode, order 1 adds the batch-statistics terms of the
// full batch-norm gradient, which have no order-2 counterpart.
func (bn *BatchNorm2D) Backward(dOut *tensor.Tensor, order int, a *tensor.Arena) *tensor.Tensor {
	dGamma, dBeta := bn.Gamma.acc(order), bn.Beta.acc(order)
	shape := bn.xhat.Shape
	b, c := shape[0], shape[1]
	hw := shape[2] * shape[3]
	n := float64(b * hw)
	dIn := a.Alloc(shape...)

	for ci := 0; ci < c; ci++ {
		// Per-channel reductions.
		var sumD, sumDXhat float64
		for bi := 0; bi < b; bi++ {
			base := (bi*c + ci) * hw
			for i := base; i < base+hw; i++ {
				d, xh := dOut.Data[i], bn.xhat.Data[i]
				sumD += d
				if order == 2 {
					sumDXhat += d * xh * xh
				} else {
					sumDXhat += d * xh
				}
			}
		}
		dBeta.Data[ci] += sumD
		dGamma.Data[ci] += sumDXhat

		g, is := bn.Gamma.Data.Data[ci], bn.invStd[ci]
		if order == 1 && bn.trainMode {
			// Full batch-norm gradient: dx = (γ/σ)(dy − mean(dy) − x̂·mean(dy·x̂)).
			mD, mDXhat := sumD/n, sumDXhat/n
			for bi := 0; bi < b; bi++ {
				base := (bi*c + ci) * hw
				for i := base; i < base+hw; i++ {
					dIn.Data[i] = g * is * (dOut.Data[i] - mD - bn.xhat.Data[i]*mDXhat)
				}
			}
			continue
		}
		// Frozen statistics: plain affine map.
		coeff := g * is
		if order == 2 {
			coeff = g * is * g * is
		}
		for bi := 0; bi < b; bi++ {
			base := (bi*c + ci) * hw
			for i := base; i < base+hw; i++ {
				dIn.Data[i] = coeff * dOut.Data[i]
			}
		}
	}
	return dIn
}

func (bn *BatchNorm2D) drop() { bn.xhat, bn.invStd = nil, nil }

// Params implements Layer.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Clone implements Layer.
func (bn *BatchNorm2D) Clone() Layer {
	return &BatchNorm2D{
		name: bn.name, C: bn.C, Momentum: bn.Momentum, Eps: bn.Eps,
		Gamma: bn.Gamma.clone(), Beta: bn.Beta.clone(),
		RunMean: bn.RunMean.Clone(), RunVar: bn.RunVar.Clone(),
	}
}
