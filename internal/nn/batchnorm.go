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
// propagates through the squared coefficient (γ/σ)².
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

	// caches from Forward
	trainMode bool
	xhat      *tensor.Tensor // normalized input
	invStd    []float64      // per-channel 1/sqrt(var+eps) actually used
	inShape   []int
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
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkBatched(x, 4, bn.name)
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if c != bn.C {
		panic("nn: BatchNorm2D channel mismatch")
	}
	bn.trainMode = train
	bn.inShape = append(bn.inShape[:0], x.Shape...)
	hw := h * w
	n := float64(b * hw)

	mean := make([]float64, c)
	variance := make([]float64, c)
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

	if bn.invStd == nil || len(bn.invStd) != c {
		bn.invStd = make([]float64, c)
	}
	for ci := 0; ci < c; ci++ {
		bn.invStd[ci] = 1.0 / math.Sqrt(variance[ci]+bn.Eps)
	}

	out := tensor.New(x.Shape...)
	bn.xhat = tensor.New(x.Shape...)
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

// Backward implements Layer.
func (bn *BatchNorm2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	b, c := bn.inShape[0], bn.inShape[1]
	hw := bn.inShape[2] * bn.inShape[3]
	n := float64(b * hw)
	gradIn := tensor.New(bn.inShape...)

	for ci := 0; ci < c; ci++ {
		// Per-channel reductions.
		var sumDy, sumDyXhat float64
		for bi := 0; bi < b; bi++ {
			base := (bi*c + ci) * hw
			for i := base; i < base+hw; i++ {
				dy := gradOut.Data[i]
				sumDy += dy
				sumDyXhat += dy * bn.xhat.Data[i]
			}
		}
		bn.Beta.Grad.Data[ci] += sumDy
		bn.Gamma.Grad.Data[ci] += sumDyXhat

		g, is := bn.Gamma.Data.Data[ci], bn.invStd[ci]
		if bn.trainMode {
			// Full batch-norm gradient: dx = (γ/σ)(dy − mean(dy) − x̂·mean(dy·x̂)).
			mDy, mDyXhat := sumDy/n, sumDyXhat/n
			for bi := 0; bi < b; bi++ {
				base := (bi*c + ci) * hw
				for i := base; i < base+hw; i++ {
					gradIn.Data[i] = g * is * (gradOut.Data[i] - mDy - bn.xhat.Data[i]*mDyXhat)
				}
			}
		} else {
			// Frozen statistics: plain affine map.
			for bi := 0; bi < b; bi++ {
				base := (bi*c + ci) * hw
				for i := base; i < base+hw; i++ {
					gradIn.Data[i] = g * is * gradOut.Data[i]
				}
			}
		}
	}
	return gradIn
}

// BackwardSecond implements Layer.
func (bn *BatchNorm2D) BackwardSecond(hessOut *tensor.Tensor) *tensor.Tensor {
	b, c := bn.inShape[0], bn.inShape[1]
	hw := bn.inShape[2] * bn.inShape[3]
	hessIn := tensor.New(bn.inShape...)
	for ci := 0; ci < c; ci++ {
		g, is := bn.Gamma.Data.Data[ci], bn.invStd[ci]
		coeff := g * is * g * is
		var sumH, sumHXhat2 float64
		for bi := 0; bi < b; bi++ {
			base := (bi*c + ci) * hw
			for i := base; i < base+hw; i++ {
				hv := hessOut.Data[i]
				hessIn.Data[i] = coeff * hv
				sumH += hv
				xh := bn.xhat.Data[i]
				sumHXhat2 += hv * xh * xh
			}
		}
		// d²f/dβ² = Σ d²f/dy²; d²f/dγ² = Σ d²f/dy² · x̂² (dy/dγ = x̂, linear).
		bn.Beta.Hess.Data[ci] += sumH
		bn.Gamma.Hess.Data[ci] += sumHXhat2
	}
	return hessIn
}

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
