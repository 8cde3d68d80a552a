package kernel

import (
	"fmt"
	"math"
	"testing"

	"swim/internal/rng"
	"swim/internal/tensor"
)

// FuzzParse drives the kernel-backend spec grammar with arbitrary input:
// no input may panic, and every accepted spec must canonicalize — Spec()
// of the parsed backend reparses to a byte-identical Spec().
func FuzzParse(f *testing.F) {
	f.Add("scalar")
	f.Add("blocked")
	f.Add("parallel:workers=4")
	f.Add("parallel:workers=0")
	f.Add("parallel")
	f.Add("scalar:extra=1")
	f.Add("parallel:workers=-3")
	f.Add("parallel:workers=2.5")
	f.Fuzz(func(t *testing.T, spec string) {
		k, err := Parse(spec)
		if err != nil {
			return
		}
		canon := k.Spec()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q (of %q) rejected: %v", canon, spec, err)
		}
		if got := again.Spec(); got != canon {
			t.Fatalf("canonical form not a fixed point: %q reparsed to %q", canon, got)
		}
	})
}

// FuzzConv2D compares blocked's convolution with the im2col reference on
// random geometries: kernels 1–5 high and wide (so 3- and 5-wide rows,
// clipped and whole), strides 1–3, padding up to the kernel's extent,
// 1–12 output channels (odd counts run the two- and one-lane remainders)
// and any share of exact zeros, of both signs. blocked runs with the full
// workspace, without one, and with one a float too small for the scatter's
// accumulators beside the panel; each of its two loops also runs forced
// (the output-stationary one wherever outputStationary may pick it: unless
// the padding is wider than the kernel), on the full workspace and with
// no room for accumulators (which scatters at four lanes); parallel runs
// at one worker and at all CPUs. Every destination starts as NaN.
func FuzzConv2D(f *testing.F) {
	f.Add(uint8(6), uint8(14), uint8(14), uint8(16), uint8(5), uint8(5), uint8(1), uint8(0), uint8(110), uint64(1)) // LeNet conv2, 43% zeros
	f.Add(uint8(6), uint8(14), uint8(14), uint8(16), uint8(5), uint8(5), uint8(1), uint8(0), uint8(192), uint64(2)) // LeNet conv2, 75% zeros
	f.Add(uint8(1), uint8(28), uint8(28), uint8(6), uint8(5), uint8(5), uint8(1), uint8(2), uint8(0), uint64(3))    // LeNet conv1
	f.Add(uint8(8), uint8(9), uint8(11), uint8(11), uint8(5), uint8(5), uint8(1), uint8(2), uint8(128), uint64(4))  // padded 5×5, odd outC
	f.Add(uint8(8), uint8(6), uint8(6), uint8(9), uint8(3), uint8(3), uint8(1), uint8(1), uint8(128), uint64(5))    // 3×3, odd outC
	f.Add(uint8(3), uint8(5), uint8(4), uint8(8), uint8(3), uint8(5), uint8(2), uint8(1), uint8(64), uint64(6))     // map under 8 pixels
	f.Add(uint8(2), uint8(9), uint8(9), uint8(8), uint8(1), uint8(1), uint8(1), uint8(0), uint8(128), uint64(7))    // no room for accumulators
	f.Add(uint8(1), uint8(27), uint8(17), uint8(9), uint8(5), uint8(3), uint8(1), uint8(4), uint8(0), uint64(2))    // padding wider than the kernel, dense
	f.Fuzz(func(t *testing.T, inC, inH, inW, outC, kh, kw, stride, pad, zeroShare uint8, seed uint64) {
		cg := convGeom{
			inC: max(1, int(inC)%9), inH: max(1, int(inH)%31), inW: max(1, int(inW)%31), outC: max(1, int(outC)%13),
			kh: max(1, int(kh)%6), kw: max(1, int(kw)%6), stride: max(1, int(stride)%4),
		}
		cg.pad = int(pad) % max(cg.kh, cg.kw)
		if cg.inH+2*cg.pad < cg.kh || cg.inW+2*cg.pad < cg.kw {
			return
		}
		g := tensor.NewConv2DGeom(cg.inC, cg.inH, cg.inW, cg.kh, cg.kw, cg.stride, cg.pad)
		r := rng.New(seed)
		batch := 1 + int(seed%3)
		x := tensor.New(batch, g.InC, g.InH, g.InW)
		for i := range x.Data {
			if r.Intn(256) < int(zeroShare) {
				x.Data[i] = math.Copysign(0, float64(r.Intn(2))-0.5)
			} else {
				x.Data[i] = r.Gauss(0, 1)
			}
		}
		w := tensor.New(cg.outC, g.ColRows())
		fill(w, r)
		bias := make([]float64, cg.outC)
		for i := range bias {
			bias[i] = r.Gauss(0, 1)
		}
		bias[0] = math.Copysign(0, -1)
		want := tensor.New(batch, cg.outC, g.OutH, g.OutW)
		referenceConv(g, cg.outC, want, x, w, bias)
		check := func(name string, run func(got *tensor.Tensor)) {
			got := tensor.New(want.Shape...)
			for i := range got.Data {
				got.Data[i] = math.NaN()
			}
			run(got)
			if i, ok := bitsEqual(want, got); !ok {
				t.Fatalf("%s %+v batch %d: [%d] = %v (bits %#x), reference %v (bits %#x)", name, cg, batch,
					i, got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
			}
		}
		kr, hw := g.ColRows(), g.ColCols()
		full := tensor.New(kr, hw)
		short := tensor.New(max(0, 8*(kr+hw)-1))
		for name, ws := range map[string]*tensor.Tensor{"blocked": full, "blocked/nil": nil, "blocked/short": short} {
			check(name, func(got *tensor.Tensor) { blocked{}.Conv2D(g, cg.outC, got, x, w, bias, ws) })
		}
		for _, stationary := range []bool{false, g.Pad <= g.KW} {
			panel := make([]float64, 8*kr)
			for _, acc := range [][]float64{make([]float64, 8*hw), nil} {
				check(fmt.Sprintf("convTiles stationary=%v acc=%v", stationary, acc != nil), func(got *tensor.Tensor) {
					convTiles(g, cg.outC, batch, got.Data, x.Data, w.Data, bias, panel, acc, stationary)
				})
			}
		}
		for _, back := range variants(t)[1:] {
			check(back.Spec(), func(got *tensor.Tensor) { back.Conv2D(g, cg.outC, got, x, w, bias, nil) })
		}
	})
}
