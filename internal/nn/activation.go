package nn

import (
	"math"

	"swim/internal/kernel"
	"swim/internal/tensor"
)

// ReLU is the rectified linear activation. Per the paper's Eq. 10 the second
// derivative passes through the same 0/1 mask as the gradient (g′ ∈ {0,1},
// so g′² = g′, and g″ = 0): Backward is the same at both orders.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	out := x.Clone()
	if cap(r.mask) < len(out.Data) {
		r.mask = make([]bool, len(out.Data))
	}
	r.mask = r.mask[:len(out.Data)]
	for i, v := range out.Data {
		if v > 0 {
			r.mask[i] = true
		} else {
			r.mask[i] = false
			out.Data[i] = 0
		}
	}
	return out
}

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) ([]int, error) { return in, nil }

// ForwardInto implements Layer (no mask bookkeeping — inference only).
func (r *ReLU) ForwardInto(dst, x *tensor.Tensor, _ *tensor.Arena, _ kernel.Backend) {
	for i, v := range x.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = 0
		}
	}
}

// Backward implements Layer.
func (r *ReLU) Backward(dOut *tensor.Tensor, _ int) *tensor.Tensor {
	dIn := dOut.Clone()
	for i := range dIn.Data {
		if !r.mask[i] {
			dIn.Data[i] = 0
		}
	}
	return dIn
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Clone implements Layer.
func (r *ReLU) Clone() Layer { return &ReLU{} }

// QuantAct fake-quantizes activations to Bits bits over [0, Max] (activations
// in this repo follow ReLU, so they are non-negative). Training uses the
// straight-through estimator: within range the derivative is treated as 1, so
// Backward applies the same in-range mask at both orders (g″ = 0 almost
// everywhere). This reproduces the paper's setting where "both the weights
// and activation are quantized".
type QuantAct struct {
	name string
	Bits int
	Max  float64
	// Calibrate widens Max to the observed maximum while training, emulating
	// a calibration pass; frozen during evaluation.
	Calibrate bool
	// Disabled turns the layer into a pass-through. Diagnostics that need
	// the smooth underlying network (e.g. finite-difference curvature
	// checks, where the rounding staircase would swamp the signal) disable
	// quantizers on a cloned network.
	Disabled bool

	inRange []bool
}

// NewQuantAct builds an activation quantizer with an initial range estimate.
func NewQuantAct(name string, bits int, maxAbs float64) *QuantAct {
	return &QuantAct{name: name, Bits: bits, Max: maxAbs, Calibrate: true}
}

// Levels returns the number of quantization steps.
func (q *QuantAct) Levels() int { return (1 << q.Bits) - 1 }

// Name implements Layer.
func (q *QuantAct) Name() string { return q.name }

// Forward implements Layer.
func (q *QuantAct) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if q.Disabled {
		if cap(q.inRange) < len(x.Data) {
			q.inRange = make([]bool, len(x.Data))
		}
		q.inRange = q.inRange[:len(x.Data)]
		for i := range q.inRange {
			q.inRange[i] = true
		}
		return x
	}
	if train && q.Calibrate {
		if m := x.AbsMax(); m > q.Max {
			q.Max = m
		}
	}
	out := x.Clone()
	if cap(q.inRange) < len(out.Data) {
		q.inRange = make([]bool, len(out.Data))
	}
	q.inRange = q.inRange[:len(out.Data)]
	step := q.Max / float64(q.Levels())
	if step == 0 {
		for i := range q.inRange {
			q.inRange[i] = true
		}
		return out
	}
	for i, v := range out.Data {
		q.inRange[i] = v >= 0 && v <= q.Max
		if v < 0 {
			out.Data[i] = 0
		} else if v > q.Max {
			out.Data[i] = q.Max
		} else {
			out.Data[i] = math.Round(v/step) * step
		}
	}
	return out
}

// OutShape implements Layer.
func (q *QuantAct) OutShape(in []int) ([]int, error) { return in, nil }

// ForwardInto implements Layer: the evaluation-mode quantization (no range
// calibration, no straight-through mask bookkeeping). The arithmetic matches
// Forward(x, false) bit for bit.
func (q *QuantAct) ForwardInto(dst, x *tensor.Tensor, _ *tensor.Arena, _ kernel.Backend) {
	if q.Disabled {
		copy(dst.Data, x.Data)
		return
	}
	step := q.Max / float64(q.Levels())
	if step == 0 {
		copy(dst.Data, x.Data)
		return
	}
	for i, v := range x.Data {
		if v < 0 {
			dst.Data[i] = 0
		} else if v > q.Max {
			dst.Data[i] = q.Max
		} else {
			dst.Data[i] = math.Round(v/step) * step
		}
	}
}

// Backward implements Layer.
func (q *QuantAct) Backward(dOut *tensor.Tensor, _ int) *tensor.Tensor {
	dIn := dOut.Clone()
	for i := range dIn.Data {
		if !q.inRange[i] {
			dIn.Data[i] = 0
		}
	}
	return dIn
}

// Params implements Layer.
func (q *QuantAct) Params() []*Param { return nil }

// Clone implements Layer.
func (q *QuantAct) Clone() Layer {
	return &QuantAct{name: q.name, Bits: q.Bits, Max: q.Max, Calibrate: q.Calibrate, Disabled: q.Disabled}
}
