package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"swim/internal/rng"
	"swim/internal/tensor"
)

// clampMax is a 4-bit range whose top level, 15·(Max/15), exceeds Max by
// one ulp: a value just under Max rounds to more than any value above Max
// maps to.
const clampMax = 7.61314378599372

// chain runs the unfused steps the fused one replaces: ReLU, q and, with
// pool, a 2×2 stride-2 MaxPool2D, each through its ForwardInto.
func chain(q *QuantAct, x *tensor.Tensor, pool bool) *tensor.Tensor {
	r := tensor.New(x.Shape...)
	NewReLU().ForwardInto(r, x, nil, nil)
	out := tensor.New(x.Shape...)
	q.ForwardInto(out, r, nil, nil)
	if !pool {
		return out
	}
	mp := NewMaxPool2D("pool", 2, 2)
	shape, err := mp.OutShape(x.Shape)
	if err != nil {
		panic(err)
	}
	pooled := tensor.New(shape...)
	mp.ForwardInto(pooled, out, nil, nil)
	return pooled
}

// checkFused compares q.ForwardReLUInto on x with the chain, bit for bit,
// with and without the pool. Every destination starts as NaN.
func checkFused(t *testing.T, q *QuantAct, x *tensor.Tensor) {
	t.Helper()
	for _, pool := range []bool{false, true} {
		want := chain(q, x, pool)
		got := tensor.New(want.Shape...)
		for i := range got.Data {
			got.Data[i] = math.NaN()
		}
		q.ForwardReLUInto(got, x, pool)
		for i, w := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
				t.Fatalf("Max=%v Bits=%d Disabled=%v pool=%v shape %v: [%d] = %v (bits %#x), chain %v (bits %#x)",
					q.Max, q.Bits, q.Disabled, pool, x.Shape, i, got.Data[i], math.Float64bits(got.Data[i]),
					w, math.Float64bits(w))
			}
		}
	}
}

// edgeWindows lists 2×2 pooling windows, in MaxPool2D's scan order, that
// take the fused step's exact path or could trip a shortcut, for a
// quantizer over [0, m] at the given bit width.
func edgeWindows(m float64, bits int) [][4]float64 {
	step := m / float64(int(1)<<bits-1)
	top := m - step/4 // rounds to the top level
	above := 1.25*m + 1
	nan, negNaN := math.NaN(), math.Float64frombits(1<<63|math.Float64bits(math.NaN()))
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	return [][4]float64{
		{top, above, 0.5 * m, -1}, // the top level beats Max
		{above, negZero, top, 0.1},
		{m, 0.9 * m, 0, 0},
		{above, 2 * above, -1, nan},
		{nan, 0.3 * m, negZero, 0.1 * m},
		{nan, nan, nan, nan},
		{nan, negZero, negZero, negZero},
		{negNaN, 0.2 * m, -1, negZero},
		{negNaN, negNaN, -inf, negZero},
		{inf, 1, -inf, 0},
		{-inf, negZero, 0, -1},
		{negZero, negZero, negZero, negZero},
		{-1, -2, -3, -0.5},
		{math.SmallestNonzeroFloat64, negZero, 0, -math.SmallestNonzeroFloat64},
	}
}

// TestForwardReLUIntoMatchesChain pins the fused ReLU → QuantAct (→ 2×2
// MaxPool2D) step against the chain it replaces, bit for bit: a Max whose
// top level exceeds it, with windows holding an element that rounds to the
// top level beside one above Max; NaN, ±Inf and ±0 entries; a disabled
// quantizer, Max = 0 and quantizers that are not monotone (NaN, infinite
// or negative Max, zero levels); a 5×5 map, whose last row and column the
// pool drops; batches 1, 7 and 64.
func TestForwardReLUIntoMatchesChain(t *testing.T) {
	step := clampMax / 15
	if top := 15 * step; !(top > clampMax) {
		t.Fatalf("premise: 15·(%v/15) = %v does not exceed Max", clampMax, top)
	}
	quants := []*QuantAct{
		{Bits: 4, Max: clampMax},
		{Bits: 4, Max: 1},
		{Bits: 6, Max: 3},
		{Bits: 4, Max: clampMax, Disabled: true},
		{Bits: 4, Max: 0},
		{Bits: 4, Max: math.NaN()},
		{Bits: 4, Max: math.Inf(1)},
		{Bits: 4, Max: -1},
		{Bits: 0, Max: 1},
		{Bits: 64, Max: 1},
	}
	r := rng.New(71)
	for _, q := range quants {
		windows := edgeWindows(clampMax, 4)
		for _, batch := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("Max=%v/Bits=%d/Disabled=%v/batch=%d", q.Max, q.Bits, q.Disabled, batch), func(t *testing.T) {
				const c, h, w = 4, 5, 5
				x := tensor.New(batch, c, h, w)
				for i := range x.Data {
					x.Data[i] = r.Gauss(0.2, 0.5) * clampMax
				}
				// The dropped row and column hold values that would win any
				// window they were read into.
				for p := 0; p < batch*c; p++ {
					for k := 0; k < w; k++ {
						x.Data[p*h*w+(h-1)*w+k] = 4 * clampMax
						x.Data[p*h*w+k*w+w-1] = 4 * clampMax
					}
				}
				// Plant the edge windows into the first windows of the map,
				// four per plane.
				for k, win := range windows {
					p, wi := k/4, k%4
					if p >= batch*c {
						break
					}
					base := p*h*w + (wi/2)*2*w + (wi%2)*2
					x.Data[base], x.Data[base+1] = win[0], win[1]
					x.Data[base+w], x.Data[base+w+1] = win[2], win[3]
				}
				checkFused(t, q, x)
			})
		}
	}
}

// FuzzActQuantPool compares the fused ReLU → QuantAct (→ 2×2 MaxPool2D)
// step with the unfused chain on arbitrary float64 bit patterns (8 bytes
// each, little-endian, laid out row by row as a map three wide, whose third
// column, and last row when the count is odd, the pool drops), an
// arbitrary Max bit pattern and bit widths 0–64. The seeds hold the edge
// windows of TestForwardReLUIntoMatchesChain, one per pair of rows.
func FuzzActQuantPool(f *testing.F) {
	var data []byte
	for _, win := range edgeWindows(clampMax, 4) {
		for _, v := range []float64{win[0], win[1], 4 * clampMax, win[2], win[3], 4 * clampMax} {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
	}
	for _, m := range []float64{clampMax, 1, 0, math.NaN(), math.Inf(1), -1} {
		f.Add(data, math.Float64bits(m), uint8(4), false)
	}
	f.Add(data, math.Float64bits(clampMax), uint8(4), true)
	f.Add(data, math.Float64bits(1), uint8(0), false)
	f.Add(data, math.Float64bits(1), uint8(64), false)
	f.Fuzz(func(t *testing.T, data []byte, maxBits uint64, bits uint8, disabled bool) {
		vs := make([]float64, max(6, len(data)/8))
		for i := range vs {
			if len(data) >= 8*(i+1) {
				vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			}
		}
		const w = 3
		h := len(vs) / w
		x := tensor.FromSlice(vs[:h*w], 1, 1, h, w)
		q := &QuantAct{Bits: int(bits % 65), Max: math.Float64frombits(maxBits), Disabled: disabled}
		checkFused(t, q, x)
	})
}

// chainRun is what one training pass of ReLU → q (→ 2×2 stride-2
// MaxPool2D) leaves: the output, the calibrated Max, the input derivatives
// at orders 1 and 2, and each window's argmax, -1 where the derivative
// stops at the masks.
type chainRun struct {
	out, d1, d2 []float64
	max         float64
	argmax      []int
}

// unfusedChain runs the chain one layer at a time on a copy of q: each
// layer's Forward, then each Backward at orders 1 and 2, seeded by g1, g2.
// A third backward pass, seeded with o+1 at each pooled output o, finds
// the windows whose derivative reaches MaxPool2D's argmax. Everything
// comes from a.
func unfusedChain(q *QuantAct, x, g1, g2 *tensor.Tensor, train, pool bool, a *tensor.Arena) chainRun {
	rl, qa, mp := NewReLU(), q.Clone().(*QuantAct), NewMaxPool2D("pool", 2, 2)
	out := qa.Forward(rl.Forward(x, train, a), train, a)
	if pool {
		out = mp.Forward(out, train, a)
	}
	backward := func(d *tensor.Tensor, order int) []float64 {
		if pool {
			d = mp.Backward(d, order, a)
		}
		return rl.Backward(qa.Backward(d, order, a), order, a).Data
	}
	run := chainRun{out: out.Data, max: qa.Max, d1: backward(g1, 1), d2: backward(g2, 2)}
	if pool {
		probe := tensor.New(out.Shape...)
		for o := range probe.Data {
			probe.Data[o] = float64(o + 1)
		}
		reached := backward(probe, 1)
		for o, k := range mp.argmax {
			if reached[k] != float64(o+1) {
				k = -1
			}
			run.argmax = append(run.argmax, k)
		}
	}
	return run
}

// fusedChain runs the same chain as a Sequential, which runs it as q's one
// fused step, forward and backward.
func fusedChain(q *QuantAct, x, g1, g2 *tensor.Tensor, train, pool bool, a *tensor.Arena) chainRun {
	qa := q.Clone().(*QuantAct)
	layers := []Layer{NewReLU(), qa}
	if pool {
		layers = append(layers, NewMaxPool2D("pool", 2, 2))
	}
	seq := NewSequential("chain", layers...)
	out := seq.Forward(x, train, a)
	return chainRun{
		out: out.Data, max: qa.Max, argmax: qa.argmax,
		d1: seq.Backward(g1, 1, a).Data,
		d2: seq.Backward(g2, 2, a).Data,
	}
}

// checkTrainChain compares the fused training step with the unfused chain
// on x, bit for bit, in training and evaluation mode, with and without the
// pool. The derivative seeds hold ±0, NaN and ±Inf among distinct finite
// values, so every window's argmax shows in the input derivative too.
func checkTrainChain(t *testing.T, q *QuantAct, x *tensor.Tensor) {
	t.Helper()
	ua, fa := tensor.NewArena(), tensor.NewArena()
	for _, train := range []bool{false, true} {
		for _, pool := range []bool{false, true} {
			shape := x.Shape
			if pool {
				shape = []int{x.Shape[0], x.Shape[1], x.Shape[2] / 2, x.Shape[3] / 2}
			}
			g1, g2 := tensor.New(shape...), tensor.New(shape...)
			specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
			for i := range g1.Data {
				g1.Data[i] = float64(i+1) * 0.25
				g2.Data[i] = -float64(i+1) * 0.125
				if i%3 == 0 {
					g1.Data[i] = specials[(i/3)%len(specials)]
					g2.Data[i] = specials[(i/3+2)%len(specials)]
				}
			}
			ua.Reset()
			fa.Reset()
			want := unfusedChain(q, x, g1, g2, train, pool, ua)
			got := fusedChain(q, x, g1, g2, train, pool, fa)
			where := fmt.Sprintf("Max=%v Bits=%d Disabled=%v train=%v pool=%v shape %v", q.Max, q.Bits, q.Disabled, train, pool, x.Shape)
			if math.Float64bits(got.max) != math.Float64bits(want.max) {
				t.Fatalf("%s: calibrated Max %v, chain %v", where, got.max, want.max)
			}
			for _, c := range []struct {
				what      string
				got, want []float64
			}{{"output", got.out, want.out}, {"order-1 dIn", got.d1, want.d1}, {"order-2 dIn", got.d2, want.d2}} {
				for i, w := range c.want {
					if math.Float64bits(c.got[i]) != math.Float64bits(w) {
						t.Fatalf("%s: %s[%d] = %v (bits %#x), chain %v (bits %#x)", where, c.what, i,
							c.got[i], math.Float64bits(c.got[i]), w, math.Float64bits(w))
					}
				}
			}
			for o, k := range want.argmax {
				if got.argmax[o] != k {
					t.Fatalf("%s: argmax[%d] = %d, chain %d", where, o, got.argmax[o], k)
				}
			}
		}
	}
}

// tieWindows lists 2×2 windows whose elements quantize to one level at
// Max = 1 and 4 bits (step 1/15) although their raw values differ, the
// raw maximum not first in MaxPool2D's scan order: an argmax taken on raw
// values routes the derivative elsewhere.
var tieWindows = [][4]float64{
	{0.11, 0.12, -1, 0.02},
	{0.02, 0.03, 0.11, 0.12},
	{-0.5, 0.7, 0.71, 0.72},
	{0.5, 0.3, 0.52, 0.51},
}

// TestTrainChainMatchesLayers pins the fused ReLU → QuantAct (→ 2×2
// MaxPool2D) training step against the layers it replaces, bit for bit:
// output, calibrated Max in training and evaluation mode, the argmax where
// quantization ties a window, and the input derivatives at orders 1 and 2
// for derivatives holding ±0, NaN and ±Inf. Quantizers: 4 and 6 bits,
// disabled, Max = 0 (a zero step) and Max exceeded by the inputs; maps of
// 5×5, 5×4 and 3×7, which leave a row or a column outside every window.
func TestTrainChainMatchesLayers(t *testing.T) {
	quants := []*QuantAct{
		{Bits: 4, Max: 1, Calibrate: true},
		{Bits: 4, Max: 1},
		{Bits: 4, Max: clampMax},
		{Bits: 6, Max: 3, Calibrate: true},
		{Bits: 4, Max: clampMax, Disabled: true, Calibrate: true},
		{Bits: 4, Max: 0},
		{Bits: 4, Max: 0, Calibrate: true},
	}
	r := rng.New(72)
	for _, q := range quants {
		for _, hw := range [][2]int{{5, 5}, {5, 4}, {3, 7}} {
			for _, batch := range []int{1, 7} {
				t.Run(fmt.Sprintf("Max=%v/Bits=%d/Disabled=%v/Calibrate=%v/%dx%d/batch=%d",
					q.Max, q.Bits, q.Disabled, q.Calibrate, hw[0], hw[1], batch), func(t *testing.T) {
					const c = 3
					h, w := hw[0], hw[1]
					x := tensor.New(batch, c, h, w)
					for i := range x.Data {
						x.Data[i] = r.Gauss(0.2, 0.5)
					}
					// Plant the tie windows and, but for +Inf (calibration
					// would make every level NaN), the edge windows: one
					// window per plane, the first.
					windows := append([][4]float64(nil), tieWindows...)
					for _, win := range edgeWindows(1, 4) {
						if !slices.Contains(win[:], math.Inf(1)) {
							windows = append(windows, win)
						}
					}
					for p := 0; p < batch*c && p < len(windows); p++ {
						win, base := windows[p], p*h*w
						x.Data[base], x.Data[base+1] = win[0], win[1]
						x.Data[base+w], x.Data[base+w+1] = win[2], win[3]
					}
					checkTrainChain(t, q, x)
				})
			}
		}
	}
}

// TestHessianFullReusesScratch runs AccumulateHessianFull twice on a
// Sigmoid/Tanh network, the second time on the first pass's scratch,
// reset and refilled with NaNs: Sigmoid and Tanh read their order-1
// derivative in the order-2 pass, so a buffer reused across orders or
// read before it is written shows as changed bits.
func TestHessianFullReusesScratch(t *testing.T) {
	r := rng.New(3)
	net := NewNetwork("mlp", NewSequential("trunk",
		NewLinear("fc1", 6, 8, r), NewSigmoid(),
		NewLinear("fc2", 8, 5, r), NewTanh(),
		NewLinear("fc3", 5, 3, r),
	), NewL2Loss())
	x := tensor.New(5, 6)
	for i := range x.Data {
		x.Data[i] = r.Gauss(0, 1)
	}
	labels := []int{0, 1, 2, 0, 1}
	s := tensor.NewArena()
	var runs [2][]float64
	for i := range runs {
		s.Reset()
		if i > 0 {
			for _, f := range [][]float64{s.AllocFloats(1 << 15), s.AllocFloats(1 << 15)} {
				for j := range f {
					f[j] = math.NaN()
				}
			}
			s.Reset()
		}
		net.ZeroGrad()
		net.ZeroHess()
		net.AccumulateHessianFull(x, labels, s)
		for _, p := range net.Params() {
			runs[i] = append(runs[i], p.Grad.Data...)
			runs[i] = append(runs[i], p.Hess.Data...)
		}
	}
	for j, v := range runs[0] {
		if math.Float64bits(runs[1][j]) != math.Float64bits(v) {
			t.Fatalf("value %d: %v on reused scratch, %v on fresh", j, runs[1][j], v)
		}
	}
	for _, l := range net.Trunk.Layers {
		if s, ok := l.(*Sigmoid); ok && (s.out != nil || s.gradOut != nil) {
			t.Fatal("sigmoid keeps scratch after the pass")
		}
	}
}

// FuzzTrainChain compares the fused training step with the layer-by-layer
// chain on arbitrary float64 bit patterns (8 bytes each, little-endian, a
// map three wide whose third column, and last row when the row count is
// odd, the pool drops), an arbitrary Max bit pattern, bit widths 0–64, a
// disabled flag and calibration. Backward runs only where the chain's
// MaxPool2D finds an argmax in every window: with a NaN or infinite step
// every quantized value can be NaN, and the layer-by-layer backward then
// indexes its input at -1.
func FuzzTrainChain(f *testing.F) {
	var data []byte
	for _, win := range append(tieWindows, edgeWindows(clampMax, 4)...) {
		for _, v := range []float64{win[0], win[1], 4 * clampMax, win[2], win[3], 4 * clampMax} {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
	}
	for _, m := range []float64{1, clampMax, 0} {
		f.Add(data, math.Float64bits(m), uint8(4), false, true)
		f.Add(data, math.Float64bits(m), uint8(4), false, false)
	}
	f.Add(data, math.Float64bits(1), uint8(4), true, true)
	f.Fuzz(func(t *testing.T, data []byte, maxBits uint64, bits uint8, disabled, calibrate bool) {
		vs := make([]float64, max(6, len(data)/8))
		for i := range vs {
			if len(data) >= 8*(i+1) {
				vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			}
		}
		const w = 3
		h := len(vs) / w
		x := tensor.FromSlice(vs[:h*w], 1, 1, h, w)
		q := &QuantAct{Bits: int(bits % 65), Max: math.Float64frombits(maxBits), Disabled: disabled, Calibrate: calibrate}
		a := tensor.NewArena()
		for _, train := range []bool{false, true} {
			probe := q.Clone().(*QuantAct)
			mp := NewMaxPool2D("pool", 2, 2)
			mp.Forward(probe.Forward(NewReLU().Forward(x, train, a), train, a), train, a)
			if slices.Contains(mp.argmax, -1) {
				checkFused(t, q, x) // forward only
				return
			}
		}
		checkTrainChain(t, q, x)
	})
}
