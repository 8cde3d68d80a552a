package kernel

import (
	"fmt"
	"math"
	"testing"

	"swim/internal/rng"
	"swim/internal/tensor"
)

// referenceConvBackward is the dense per-sample lowering ConvBackward must
// reproduce bit for bit, on the scalar backend: im2col, dW += d·colsᵀ,
// dB += spatial sums, colD = wᵀ·d and Col2ImAdd into a zeroed dIn sample.
func referenceConvBackward(g tensor.Conv2DGeom, outC int, dIn, dW *tensor.Tensor, dB []float64, x, w, d *tensor.Tensor, squared bool) {
	kr, nc := g.ColRows(), g.ColCols()
	w = w.Clone()
	if squared {
		squareAll(w.Data)
	}
	cols, colD := tensor.New(kr, nc), tensor.New(kr, nc)
	sampleIn, sampleOut := g.InC*g.InH*g.InW, outC*nc
	for bi := 0; bi < x.Shape[0]; bi++ {
		scalar{}.Im2Col(g, cols, x.Data[bi*sampleIn:(bi+1)*sampleIn])
		if squared {
			squareAll(cols.Data)
		}
		dm := tensor.FromSlice(d.Data[bi*sampleOut:(bi+1)*sampleOut], outC, nc)
		scalar{}.MatMulTransB(dW, dm, cols, true)
		for oc := 0; oc < outC; oc++ {
			s := 0.0
			for _, v := range dm.Data[oc*nc : (oc+1)*nc] {
				s += v
			}
			dB[oc] += s
		}
		if dIn == nil {
			continue
		}
		scalar{}.MatMulTransA(colD, w, dm, false)
		din := dIn.Data[bi*sampleIn : (bi+1)*sampleIn]
		clear(din)
		g.Col2ImAdd(din, colD)
	}
}

func squareAll(v []float64) {
	for i, x := range v {
		v[i] = x * x
	}
}

// sparseDerivative fills one sample's derivative with Gaussian values,
// leaving a fraction zero of them exactly zero, half of those -0.
func sparseDerivative(ds []float64, zero float64, r *rng.Source) {
	for i := range ds {
		switch {
		case r.Float64() >= zero:
			ds[i] = r.Gauss(0, 1)
		case r.Intn(2) == 0:
			ds[i] = math.Copysign(0, -1)
		default:
			ds[i] = 0
		}
	}
}

// TestConvBackwardMatchesDenseLowering pins the sparse walk and its dense
// fallback, bit for bit, against the scalar lowering: strides 1 and 2,
// padding 0–2, 1×1/3×3/5×5 kernels, non-square inputs and kernels, every
// register-tile remainder of the kernel-position count (inC 1–7) and
// channel counts 1–17, both orders, derivatives from fully dense to all
// zero (with -0 entries, uniform and mixed within a batch), accumulators
// seeded with nonzero values and -0, the input derivative both wanted and
// skipped, and the dense workspace both passed in and left to the call.
func TestConvBackwardMatchesDenseLowering(t *testing.T) {
	type shape struct{ inC, outC, inH, inW, kh, kw, stride, pad int }
	var shapes []shape
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for pad := 0; pad <= 2; pad++ {
				shapes = append(shapes, shape{3, 5, 6 + stride, 6 + stride, k, k, stride, pad})
			}
		}
	}
	for inC := 1; inC <= 7; inC++ {
		shapes = append(shapes, shape{inC, 3, 6, 6, 3, 3, 1, 1})
	}
	for outC := 1; outC <= 17; outC++ {
		shapes = append(shapes, shape{2, outC, 7, 7, 3, 3, 2, 1})
	}
	shapes = append(shapes,
		shape{2, 5, 5, 7, 3, 1, 2, 1},
		shape{3, 4, 8, 5, 1, 3, 1, 0},
		shape{2, 3, 6, 9, 5, 2, 1, 2},
	)
	zeros := []float64{0, 0.5, 0.84, 1}
	batch := len(zeros)
	r := rng.New(29)
	var dense, sparse int
	for _, s := range shapes {
		g := tensor.NewConv2DGeom(s.inC, s.inH, s.inW, s.kh, s.kw, s.stride, s.pad)
		sampleOut := s.outC * g.ColCols()
		// One batch per uniform zero fraction, then one mixing all four.
		for mix := 0; mix <= len(zeros); mix++ {
			for _, squared := range []bool{false, true} {
				name := fmt.Sprintf("in%d_out%d_%dx%d_k%dx%d_s%d_p%d/mix%d/sq=%v",
					s.inC, s.outC, s.inH, s.inW, s.kh, s.kw, s.stride, s.pad, mix, squared)
				x := tensor.New(batch, s.inC, s.inH, s.inW)
				w := tensor.New(s.outC, g.ColRows())
				d := tensor.New(batch, s.outC, g.OutH, g.OutW)
				fill(x, r)
				fill(w, r)
				for bi := 0; bi < batch; bi++ {
					zero := zeros[bi]
					if mix < len(zeros) {
						zero = zeros[mix]
					}
					ds := d.Data[bi*sampleOut : (bi+1)*sampleOut]
					sparseDerivative(ds, zero, r)
					nnz := 0
					for _, v := range ds {
						if v != 0 {
							nnz++
						}
					}
					if float64(nnz) > convBackDenseAbove*float64(len(ds)) {
						dense++
					} else {
						sparse++
					}
				}
				wantW := tensor.New(w.Shape...)
				wantB := make([]float64, s.outC)
				fill(wantW, r)
				for i := range wantB {
					wantB[i] = wantW.Data[i%len(wantW.Data)] + float64(i)
				}
				wantB[0] = math.Copysign(0, -1)
				gotW, gotB := wantW.Clone(), append([]float64(nil), wantB...)
				skipW, skipB := wantW.Clone(), append([]float64(nil), wantB...)
				wantIn := tensor.New(x.Shape...)
				gotIn := tensor.New(x.Shape...)
				for i := range gotIn.Data {
					gotIn.Data[i] = math.NaN()
				}

				referenceConvBackward(g, s.outC, wantIn, wantW, wantB, x, w, d, squared)
				ConvBackward(g, s.outC, gotIn, gotW, gotB, x, w, d, dirtyArena(), squared)
				ConvBackward(g, s.outC, nil, skipW, skipB, x, w, d, dirtyArena(), squared)

				for _, c := range []struct {
					what      string
					got, want *tensor.Tensor
				}{
					{"dW", gotW, wantW},
					{"dB", tensor.FromSlice(gotB, s.outC), tensor.FromSlice(wantB, s.outC)},
					{"dIn", gotIn, wantIn},
					{"dW without dIn", skipW, wantW},
					{"dB without dIn", tensor.FromSlice(skipB, s.outC), tensor.FromSlice(wantB, s.outC)},
				} {
					if i, ok := bitsEqual(c.got, c.want); !ok {
						t.Fatalf("%s: %s[%d] = %v (bits %#x), dense lowering gives %v (bits %#x)", name, c.what, i,
							c.got.Data[i], math.Float64bits(c.got.Data[i]), c.want.Data[i], math.Float64bits(c.want.Data[i]))
					}
				}
			}
		}
	}
	if dense == 0 || sparse == 0 {
		t.Fatalf("density switch not exercised on both sides: %d dense, %d sparse samples", dense, sparse)
	}
}

func TestConvBackwardPanicsOnShapeMismatch(t *testing.T) {
	g := tensor.NewConv2DGeom(2, 5, 5, 3, 3, 1, 1)
	x, w := tensor.New(1, 2, 5, 5), tensor.New(3, g.ColRows())
	d := tensor.New(1, 3, g.OutH, g.OutW)
	for name, f := range map[string]func(){
		"dW": func() {
			ConvBackward(g, 3, nil, tensor.New(3, 1), make([]float64, 3), x, w, d, tensor.NewArena(), false)
		},
		"dIn": func() {
			ConvBackward(g, 3, tensor.New(1, 2, 5, 4), tensor.New(w.Shape...), make([]float64, 3), x, w, d, tensor.NewArena(), false)
		},
		"d": func() {
			ConvBackward(g, 3, nil, tensor.New(w.Shape...), make([]float64, 3), x, w, tensor.New(1, 3, 4, 4), tensor.NewArena(), false)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch: no panic", name)
				}
			}()
			f()
		}()
	}
}

// dirtyArena returns an arena whose scratch, float and int, holds NaNs and
// garbage indices: ConvBackward must define every workspace element it
// reads.
func dirtyArena() *tensor.Arena {
	a := tensor.NewArena()
	fs, is := a.AllocFloats(1<<17), a.AllocInts(1<<17)
	for i := range fs {
		fs[i], is[i] = math.NaN(), -1<<40
	}
	a.Reset()
	return a
}
