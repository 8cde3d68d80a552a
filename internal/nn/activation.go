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
		out.Data[i] = q.level(v, step)
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
		dst.Data[i] = q.level(v, step)
	}
}

// level is the quantizer's map of one value at step = Max/Levels ≠ 0:
// negatives clamp to 0, values above Max to Max, the rest round to the
// nearest multiple of step. It is the one definition of the rounding.
func (q *QuantAct) level(v, step float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > q.Max:
		return q.Max
	}
	return math.Round(v/step) * step
}

// ForwardReLUInto writes, in one pass over x, what ReLU's ForwardInto and
// then q's would write; with pool, what a MaxPool2D with a 2×2 window and
// stride 2 would write after them. Evaluation plans run every ReLU →
// QuantAct (→ 2×2 MaxPool2D) as this one step, reading Max, Bits and
// Disabled at every call. The bits are the chain's.
//
// With pool it takes each window's max first and quantizes once. ReLU and
// the quantizer are monotone non-decreasing, so the max of the quantized
// values is the quantized max, except at the clamp: the top level,
// Round(Max/step)·step, can exceed Max by an ulp, while every value above
// Max maps to Max. A window holding an element that rounds to the top
// level and one above Max must give the top level. Windows whose max
// exceeds Max or is a NaN therefore run the chain element by element, as
// does every window when the quantizer is not monotone at all (a NaN,
// infinite or negative step).
func (q *QuantAct) ForwardReLUInto(dst, x *tensor.Tensor, pool bool) {
	quant, step := false, 0.0
	if !q.Disabled {
		step = q.Max / float64(q.Levels())
		quant = step != 0
	}
	if !pool {
		z := q.reluLevel(0, quant, step) // every v ≤ 0, and NaN, maps to z
		for i, v := range x.Data {
			switch {
			case !(v > 0):
				dst.Data[i] = z
			case quant:
				dst.Data[i] = q.level(v, step)
			default:
				dst.Data[i] = v
			}
		}
		return
	}
	// A window's max is taken over the int64 bit patterns of its elements,
	// starting from +0's. Negatives and −0 have the sign bit set, so they
	// drop out as ReLU zeroes them; the rest order as their values do, with
	// a NaN above +Inf. A window whose max exceeds lim runs the chain: lim
	// is +Inf for a pass-through, Max for a quantizer with a positive
	// finite step, and below +0 (every window) for any other.
	lim := int64(math.Float64bits(math.Inf(1)))
	if quant {
		lim = -1
		if step > 0 && step <= math.MaxFloat64 {
			lim = int64(math.Float64bits(q.Max))
		}
	}
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	o := 0
	for p := 0; p < b*c; p++ {
		plane := x.Data[p*h*w : (p+1)*h*w]
		for i := 1; i < h; i += 2 {
			r0, r1 := plane[(i-1)*w:i*w], plane[i*w:(i+1)*w]
			for j := 1; j < w; j += 2 {
				m := max(0, int64(math.Float64bits(r0[j-1])), int64(math.Float64bits(r0[j])),
					int64(math.Float64bits(r1[j-1])), int64(math.Float64bits(r1[j])))
				switch v := math.Float64frombits(uint64(m)); {
				case m > lim:
					dst.Data[o] = q.chainMax(quant, step, r0[j-1], r0[j], r1[j-1], r1[j])
				case quant:
					dst.Data[o] = q.level(v, step)
				default:
					dst.Data[o] = v
				}
				o++
			}
		}
	}
}

// reluLevel is ReLU and then q on one value.
func (q *QuantAct) reluLevel(v float64, quant bool, step float64) float64 {
	if !(v > 0) {
		v = 0
	}
	if quant {
		v = q.level(v, step)
	}
	return v
}

// chainMax is the unfused chain on one pooling window: MaxPool2D's max, in
// its scan order, of ReLU and then q on each element.
func (q *QuantAct) chainMax(quant bool, step float64, window ...float64) float64 {
	best := math.Inf(-1)
	for _, v := range window {
		if v = q.reluLevel(v, quant, step); v > best {
			best = v
		}
	}
	return best
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
