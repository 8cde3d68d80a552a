package nn

import (
	"math"

	"swim/internal/kernel"
	"swim/internal/tensor"
)

// ReLU is the rectified linear activation. Per the paper's Eq. 10 the second
// derivative passes through the same 0/1 mask as the gradient (g′ ∈ {0,1},
// so g′² = g′, and g″ = 0): Backward is the same at both orders. It reads
// the mask off the input Forward kept instead of storing one.
type ReLU struct {
	x *tensor.Tensor // Forward's input, in the caller's scratch
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, _ bool, a *tensor.Arena) *tensor.Tensor {
	r.x = x
	out := a.Alloc(x.Shape...)
	r.ForwardInto(out, x, a, nil)
	return out
}

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) ([]int, error) { return in, nil }

// ForwardInto implements Layer.
func (r *ReLU) ForwardInto(dst, x *tensor.Tensor, _ *tensor.Arena, _ kernel.Backend) {
	for i, v := range x.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = 0
		}
	}
}

// Backward implements Layer: dOut where Forward's input was positive, +0
// elsewhere.
func (r *ReLU) Backward(dOut *tensor.Tensor, _ int, a *tensor.Arena) *tensor.Tensor {
	dIn := a.Alloc(dOut.Shape...)
	for i, v := range r.x.Data {
		if v > 0 {
			dIn.Data[i] = dOut.Data[i]
		} else {
			dIn.Data[i] = 0
		}
	}
	return dIn
}

func (r *ReLU) drop() { r.x = nil }

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
//
// A QuantAct also runs the ReLU before it and a 2×2 stride-2 MaxPool2D
// after it as one step, when a Sequential's layers form that chain (Fuse):
// forwardChain in training, ForwardReLUInto in evaluation plans. Its
// Backward then runs the chain's backward pass.
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

	// What Forward leaves for Backward. x is its input (a fused chain's
	// ReLU input when relu is set), in the caller's scratch; an element
	// passes the derivative when inRange(x) holds, which reads the range
	// Forward quantized with. argmax, for a pooled chain, holds the input
	// index feeding each output, or -1 where that element fails inRange.
	x      *tensor.Tensor
	relu   bool
	pass   bool    // every element is in range: disabled or a zero step
	max    float64 // Max as Forward used it
	argmax []int
}

// NewQuantAct builds an activation quantizer with an initial range estimate.
func NewQuantAct(name string, bits int, maxAbs float64) *QuantAct {
	return &QuantAct{name: name, Bits: bits, Max: maxAbs, Calibrate: true}
}

// Levels returns the number of quantization steps.
func (q *QuantAct) Levels() int { return (1 << q.Bits) - 1 }

// Name implements Layer.
func (q *QuantAct) Name() string { return q.name }

// Forward implements Layer. A pass-through (Disabled, or Max = 0) returns
// x itself.
func (q *QuantAct) Forward(x *tensor.Tensor, train bool, a *tensor.Arena) *tensor.Tensor {
	q.calibrate(x, train, false)
	step, quant := q.record(x, false)
	if !quant {
		return x
	}
	out := a.Alloc(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = q.level(v, step)
	}
	return out
}

// calibrate widens Max to the largest magnitude of the quantizer's input
// while training: x's, or with relu the ReLU output of x, whose largest
// magnitude is x's largest value above 0.
func (q *QuantAct) calibrate(x *tensor.Tensor, train, relu bool) {
	if !train || !q.Calibrate || q.Disabled {
		return
	}
	m := 0.0
	if relu {
		for _, v := range x.Data {
			if v > m {
				m = v
			}
		}
	} else {
		m = x.AbsMax()
	}
	if m > q.Max {
		q.Max = m
	}
}

// stepOf returns the quantizer's step, Max/Levels, and whether it
// quantizes at all (not Disabled, a nonzero step).
func (q *QuantAct) stepOf() (step float64, quant bool) {
	if q.Disabled {
		return 0, false
	}
	step = q.Max / float64(q.Levels())
	return step, step != 0
}

// record notes, for Backward, a Forward on x (relu: a chain's, whose x is
// the ReLU input) at the current Max, and returns stepOf.
func (q *QuantAct) record(x *tensor.Tensor, relu bool) (step float64, quant bool) {
	step, quant = q.stepOf()
	q.x, q.relu, q.pass, q.max, q.argmax = x, relu, !quant, q.Max, nil
	return step, quant
}

// inRange reports whether an element whose recorded input is v passes the
// derivative: the straight-through estimator's range test, after ReLU's
// positive test in a chain.
func (q *QuantAct) inRange(v float64) bool {
	if q.relu && !(v > 0) {
		return false
	}
	return q.pass || v >= 0 && v <= q.max
}

// forwardChain is the training Forward of the chain ReLU → q (→ with pool,
// a 2×2 stride-2 MaxPool2D) on x, the ReLU's input, with the chain's bits:
// it calibrates Max first, then runs ForwardReLUInto's arithmetic and, with
// pool, records each window's argmax (poolArgmax).
func (q *QuantAct) forwardChain(x *tensor.Tensor, train, pool bool, a *tensor.Arena) *tensor.Tensor {
	q.calibrate(x, train, true)
	step, quant := q.record(x, true)
	if !pool {
		out := a.Alloc(x.Shape...)
		q.ForwardReLUInto(out, x, false)
		return out
	}
	checkBatched(x, 4, q.name)
	out := a.Alloc(x.Shape[0], x.Shape[1], poolOut(x.Shape[2], 2, 2), poolOut(x.Shape[3], 2, 2))
	q.argmax = a.AllocInts(len(out.Data))
	q.poolArgmax(out, x, q.argmax, step, quant)
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
	step, quant := q.stepOf()
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
	lim := q.poolLimit(step, quant)
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

// poolLimit is the pooled step's shortcut bound. A window's max is taken
// over the int64 bit patterns of its elements, starting from +0's.
// Negatives and −0 have the sign bit set, so they drop out as ReLU zeroes
// them; the rest order as their values do, with a NaN above +Inf. A window
// whose max exceeds the bound runs the chain: the bound is +Inf for a
// pass-through, Max for a quantizer with a positive finite step, and below
// +0 (every window) for any other.
func (q *QuantAct) poolLimit(step float64, quant bool) int64 {
	switch {
	case !quant:
		return int64(math.Float64bits(math.Inf(1)))
	case step > 0 && step <= math.MaxFloat64:
		return int64(math.Float64bits(q.Max))
	}
	return -1
}

// poolArgmax is ForwardReLUInto's pooled step for a training pass, with
// its arithmetic, which also records for each window the flat index in x
// of the element MaxPool2D would pick: the first, in its scan order, whose
// chain value equals the window's. That need not be the raw maximum, since
// quantization ties values that differ. The index is -1 when that element
// fails inRange.
func (q *QuantAct) poolArgmax(dst, x *tensor.Tensor, argmax []int, step float64, quant bool) {
	lim := q.poolLimit(step, quant)
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	xs := x.Data
	o := 0
	for p := 0; p < b*c; p++ {
		for i := p * h * w; i+w < (p+1)*h*w; i += 2 * w {
			for k := i; k+1 < i+w; k += 2 {
				win := [4]int{k, k + 1, k + w, k + w + 1}
				m := max(0, int64(math.Float64bits(xs[k])), int64(math.Float64bits(xs[k+1])),
					int64(math.Float64bits(xs[k+w])), int64(math.Float64bits(xs[k+w+1])))
				raw := math.Float64frombits(uint64(m))
				var best float64
				switch {
				case m > lim:
					best = q.chainMax(quant, step, xs[k], xs[k+1], xs[k+w], xs[k+w+1])
					raw = math.NaN()
				case quant:
					best = q.level(raw, step)
				default:
					best = raw
				}
				dst.Data[o], argmax[o] = best, -1
				for _, e := range win {
					// Off the chain path, the largest ReLU output holds the
					// window's value: no need to quantize it again.
					if v := xs[e]; v == raw || q.reluLevel(v, quant, step) == best {
						if q.inRange(v) {
							argmax[o] = e
						}
						break
					}
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

// Backward implements Layer, for q alone or for the chain its Forward
// ran: dOut where the recorded input passes inRange, +0 elsewhere; for a
// pooled chain each output's dOut added to a +0 at its argmax, as
// MaxPool2D routes it, and +0 everywhere else.
func (q *QuantAct) Backward(dOut *tensor.Tensor, _ int, a *tensor.Arena) *tensor.Tensor {
	dIn := a.Alloc(q.x.Shape...)
	if q.argmax == nil {
		for i, v := range q.x.Data {
			if q.inRange(v) {
				dIn.Data[i] = dOut.Data[i]
			} else {
				dIn.Data[i] = 0
			}
		}
		return dIn
	}
	clear(dIn.Data)
	for o, k := range q.argmax {
		if k >= 0 {
			dIn.Data[k] += dOut.Data[o]
		}
	}
	return dIn
}

func (q *QuantAct) drop() { q.x, q.argmax = nil, nil }

// Params implements Layer.
func (q *QuantAct) Params() []*Param { return nil }

// Clone implements Layer.
func (q *QuantAct) Clone() Layer {
	return &QuantAct{name: q.name, Bits: q.Bits, Max: q.Max, Calibrate: q.Calibrate, Disabled: q.Disabled}
}
