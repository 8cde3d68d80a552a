package kernel

import (
	"fmt"
	"math"
	"testing"

	"swim/internal/rng"
	"swim/internal/tensor"
)

// convShapes are the four ResNet stage geometries (equal flops per shape at
// width 4 — channels double as the map halves) plus LeNet's two
// convolutions, so the per-shape numbers show where a backend's
// convolution wins or loses. A stem reads raw pixels, which carry no exact
// zeros (dense); every other layer reads a hidden feature map. LeNet's
// conv2 runs at two planted zero shares (zeros, percent) on either side of
// its switch: 43%, what the trained SWIM_FAST LeNet's test set feeds it
// (Table 1 jobs feed it 35–50%), and 75%, about what drifted devices feed
// it in serve-coord's shards (70–80%).
var convShapes = []struct {
	inC, outC, h, w, kh, kw, stride, pad int
	dense                                bool
	zeros                                int
}{
	{3, 4, 32, 32, 3, 3, 1, 1, true, 0},    // resnet stem
	{4, 4, 32, 32, 3, 3, 1, 1, false, 0},   // stage 1
	{8, 8, 16, 16, 3, 3, 1, 1, false, 0},   // stage 2
	{16, 16, 8, 8, 3, 3, 1, 1, false, 0},   // stage 3
	{32, 32, 4, 4, 3, 3, 1, 1, false, 0},   // stage 4
	{1, 6, 28, 28, 5, 5, 1, 2, true, 0},    // lenet stem
	{6, 16, 14, 14, 5, 5, 1, 0, false, 43}, // lenet conv2, clean
	{6, 16, 14, 14, 5, 5, 1, 0, false, 75}, // lenet conv2, drifted
	{4, 8, 32, 32, 3, 3, 2, 1, false, 0},   // strided downsample
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
			case s.zeros > 0:
				// Zeros planted at random, rectified values elsewhere.
				for i := range x.Data {
					if r.Intn(100) < s.zeros {
						x.Data[i] = 0
					} else {
						x.Data[i] = math.Abs(r.Gauss(0, 1))
					}
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
			if s.zeros > 0 {
				name += fmt.Sprintf("_z%d", s.zeros)
			}
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

// linearShapes are LeNet's two hidden fully connected layers at the input
// zero shares (zeros, percent) the trained SWIM_FAST LeNet's test set feeds
// them: fc1's input is the flattened pooled conv2 map, fc2's fc1's
// quantized ReLU.
var linearShapes = []struct{ in, out, zeros int }{
	{400, 120, 79}, // fc1
	{120, 84, 65},  // fc2
}

// BenchmarkLinearBackends measures one fused Linear call per backend and
// layer (batch 64, the evaluation batch), zeros planted at random and
// rectified values elsewhere.
func BenchmarkLinearBackends(b *testing.B) {
	for _, back := range []Backend{scalar{}, blocked{}} {
		for _, s := range linearShapes {
			const batch = 64
			r := rng.New(17)
			x := tensor.New(batch, s.in)
			for i := range x.Data {
				if r.Intn(100) >= s.zeros {
					x.Data[i] = math.Abs(r.Gauss(0, 1))
				}
			}
			w := tensor.New(s.out, s.in)
			fill(w, r)
			bias := make([]float64, s.out)
			for i := range bias {
				bias[i] = r.Gauss(0, 1)
			}
			dst := tensor.New(batch, s.out)
			b.Run(fmt.Sprintf("%s/%d-%d_z%d", back.Name(), s.in, s.out, s.zeros), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					back.Linear(dst, x, w, bias)
				}
				b.SetBytes(int64(8 * batch * s.in * s.out))
			})
		}
	}
}
