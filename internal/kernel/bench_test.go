package kernel

import (
	"fmt"
	"math"
	"testing"

	"swim/internal/rng"
	"swim/internal/tensor"
)

// convShapes are the four ResNet stage geometries (equal flops per shape at
// width 4 — channels double as the map halves) plus the LeNet stem, so the
// per-shape numbers show where a backend's convolution wins or loses. A
// stem reads raw pixels, which carry no exact zeros (dense); every other
// layer reads a hidden feature map.
var convShapes = []struct {
	inC, outC, h, w, kh, kw, stride, pad int
	dense                                bool
}{
	{3, 4, 32, 32, 3, 3, 1, 1, true},  // resnet stem
	{4, 4, 32, 32, 3, 3, 1, 1, false}, // stage 1
	{8, 8, 16, 16, 3, 3, 1, 1, false}, // stage 2
	{16, 16, 8, 8, 3, 3, 1, 1, false}, // stage 3
	{32, 32, 4, 4, 3, 3, 1, 1, false}, // stage 4
	{1, 6, 28, 28, 5, 5, 1, 2, true},  // lenet stem
	{4, 8, 32, 32, 3, 3, 2, 1, false}, // strided downsample
}

// BenchmarkConv2DBackends measures one batched Conv2D call per backend and
// shape (batch 8), isolating the convolution kernels from the rest of the
// plan. SetBytes carries the flop-proportional volume so ns/op comparisons
// across shapes stay meaningful.
func BenchmarkConv2DBackends(b *testing.B) {
	for _, back := range []Backend{scalar{}, blocked{}} {
		for _, s := range convShapes {
			g := tensor.NewConv2DGeom(s.inC, s.h, s.w, s.kh, s.kw, s.stride, s.pad)
			const batch = 8
			r := rng.New(11)
			x := tensor.New(batch, s.inC, s.h, s.w)
			w := tensor.New(s.outC, g.ColRows())
			switch {
			case s.dense:
				for i := range x.Data {
					x.Data[i] = r.Gauss(0, 1)
				}
			case s.stride > 1:
				// Strided hidden maps measured 22–60% exact zeros
				// (EXPERIMENTS.md, "Strided convolutions"); the rectified
				// fill below leaves 62.5%, the 3×3 stride-2 crossover where
				// the two loops tie. Plant two zeros in five instead.
				for i := range x.Data {
					if r.Intn(5) < 2 {
						x.Data[i] = 0
					} else {
						x.Data[i] = math.Abs(r.Gauss(0, 1))
					}
				}
			default:
				// Hidden feature maps arrive post-ReLU/post-quantization
				// with roughly half their entries exactly zero; rectify the
				// input so the backends are measured in the regime they
				// meet there.
				fill(x, r)
				for i, v := range x.Data {
					if v < 0 {
						x.Data[i] = 0
					}
				}
			}
			fill(w, r)
			bias := make([]float64, s.outC)
			for i := range bias {
				bias[i] = r.Gauss(0, 1)
			}
			dst := tensor.New(batch, s.outC, g.OutH, g.OutW)
			var cols *tensor.Tensor
			if back.UsesIm2Col() {
				cols = tensor.New(g.ColRows(), g.ColCols())
			}
			name := fmt.Sprintf("%s/c%d-%d_%dx%d_s%d", back.Name(), s.inC, s.outC, s.h, s.w, s.stride)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					back.Conv2D(g, s.outC, dst, x, w, bias, cols)
				}
				b.SetBytes(int64(8 * batch * s.outC * g.ColRows() * g.OutH * g.OutW))
			})
		}
	}
}

// BenchmarkMatMulBackends measures the plain matmul orientation at the
// register-tiling sweet spot and at a skinny shape.
func BenchmarkMatMulBackends(b *testing.B) {
	sizes := []struct{ m, k, n int }{{64, 128, 128}, {64, 512, 10}}
	for _, back := range []Backend{scalar{}, blocked{}} {
		for _, sz := range sizes {
			r := rng.New(13)
			a := tensor.New(sz.m, sz.k)
			bb := tensor.New(sz.k, sz.n)
			c := tensor.New(sz.m, sz.n)
			fill(a, r)
			fill(bb, r)
			b.Run(fmt.Sprintf("%s/%dx%dx%d", back.Name(), sz.m, sz.k, sz.n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					back.MatMul(c, a, bb, false)
				}
				b.SetBytes(int64(8 * sz.m * sz.k * sz.n))
			})
		}
	}
}
