package nn

import (
	"encoding/binary"
	"fmt"
	"math"
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
