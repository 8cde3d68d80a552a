package kernel

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"swim/internal/rng"
	"swim/internal/spec"
	"swim/internal/tensor"
)

// fill populates t with Gaussian values, planting exact zeros (to exercise
// the zero-skip) and negative zeros (to exercise signed-zero accumulation).
func fill(t *tensor.Tensor, r *rng.Source) {
	for i := range t.Data {
		switch r.Intn(8) {
		case 0:
			t.Data[i] = 0
		case 1:
			t.Data[i] = math.Copysign(0, -1)
		default:
			t.Data[i] = r.Gauss(0, 1)
		}
	}
}

// bitsEqual reports whether a and b hold bit-identical data.
func bitsEqual(a, b *tensor.Tensor) (int, bool) {
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return i, false
		}
	}
	return 0, true
}

// variants returns the non-scalar backends under test, including parallel at
// 1 worker and at all CPUs.
func variants(t *testing.T) []Backend {
	t.Helper()
	specs := []string{"blocked", "parallel:workers=1", "parallel"}
	out := make([]Backend, 0, len(specs))
	for _, s := range specs {
		b, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		out = append(out, b)
	}
	return out
}

func TestMatMulVariantsBitIdentical(t *testing.T) {
	r := rng.New(7)
	sizes := []struct{ m, k, n int }{
		{1, 1, 1}, {1, 2, 3}, {2, 13, 4}, {3, 5, 7}, {5, 9, 8},
		{4, 16, 9}, {7, 31, 17}, {16, 24, 33}, {64, 36, 40},
	}
	for _, sz := range sizes {
		for _, acc := range []bool{false, true} {
			a := tensor.New(sz.m, sz.k)
			b := tensor.New(sz.k, sz.n)
			fill(a, r)
			fill(b, r)
			seed := tensor.New(sz.m, sz.n)
			fill(seed, r)
			want := seed.Clone()
			scalar{}.MatMul(want, a, b, acc)
			for _, back := range variants(t) {
				got := seed.Clone()
				back.MatMul(got, a, b, acc)
				if i, ok := bitsEqual(want, got); !ok {
					t.Fatalf("%s MatMul %dx%dx%d acc=%v: bit mismatch at %d: %g vs %g",
						back.Spec(), sz.m, sz.k, sz.n, acc, i, want.Data[i], got.Data[i])
				}
			}
		}
	}
}

func TestMatMulTransAVariantsBitIdentical(t *testing.T) {
	r := rng.New(11)
	sizes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 2, 5}, {5, 13, 9}, {8, 7, 16}, {17, 31, 23},
	}
	for _, sz := range sizes {
		for _, acc := range []bool{false, true} {
			a := tensor.New(sz.k, sz.m)
			b := tensor.New(sz.k, sz.n)
			fill(a, r)
			fill(b, r)
			seed := tensor.New(sz.m, sz.n)
			fill(seed, r)
			want := seed.Clone()
			scalar{}.MatMulTransA(want, a, b, acc)
			for _, back := range variants(t) {
				got := seed.Clone()
				back.MatMulTransA(got, a, b, acc)
				if i, ok := bitsEqual(want, got); !ok {
					t.Fatalf("%s MatMulTransA %dx%dx%d acc=%v: bit mismatch at %d",
						back.Spec(), sz.m, sz.k, sz.n, acc, i)
				}
			}
		}
	}
}

func TestMatMulTransBVariantsBitIdentical(t *testing.T) {
	r := rng.New(13)
	sizes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 2}, {4, 13, 5}, {7, 8, 11}, {32, 25, 10},
	}
	for _, sz := range sizes {
		for _, acc := range []bool{false, true} {
			a := tensor.New(sz.m, sz.k)
			b := tensor.New(sz.n, sz.k)
			fill(a, r)
			fill(b, r)
			seed := tensor.New(sz.m, sz.n)
			fill(seed, r)
			want := seed.Clone()
			scalar{}.MatMulTransB(want, a, b, acc)
			for _, back := range variants(t) {
				got := seed.Clone()
				back.MatMulTransB(got, a, b, acc)
				if i, ok := bitsEqual(want, got); !ok {
					t.Fatalf("%s MatMulTransB %dx%dx%d acc=%v: bit mismatch at %d",
						back.Spec(), sz.m, sz.k, sz.n, acc, i)
				}
			}
		}
	}
}

// TestLinearFusedMatchesUnfused pins the fused bias+matmul against the
// historical two-pass sequence (matmul into a zeroed destination, then a
// bias sweep) for every backend including scalar.
func TestLinearFusedMatchesUnfused(t *testing.T) {
	r := rng.New(17)
	sizes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 5, 3}, {7, 13, 9}, {32, 400, 120}, {5, 84, 10},
	}
	for _, sz := range sizes {
		x := tensor.New(sz.m, sz.k)
		w := tensor.New(sz.n, sz.k)
		fill(x, r)
		fill(w, r)
		bias := make([]float64, sz.n)
		for i := range bias {
			if r.Intn(6) == 0 {
				bias[i] = math.Copysign(0, -1)
			} else {
				bias[i] = r.Gauss(0, 1)
			}
		}
		want := tensor.New(sz.m, sz.n)
		scalar{}.MatMulTransB(want, x, w, false)
		for bi := 0; bi < sz.m; bi++ {
			row := want.Data[bi*sz.n : (bi+1)*sz.n]
			for j := range row {
				row[j] += bias[j]
			}
		}
		backends := append([]Backend{scalar{}}, variants(t)...)
		for _, back := range backends {
			got := tensor.New(sz.m, sz.n)
			fill(got, r) // dst may hold garbage on entry
			back.Linear(got, x, w, bias)
			if i, ok := bitsEqual(want, got); !ok {
				t.Fatalf("%s Linear %dx%dx%d: bit mismatch at %d: %g vs %g",
					back.Spec(), sz.m, sz.k, sz.n, i, want.Data[i], got.Data[i])
			}
		}
	}
}

// convGeom is one convolution shape under test.
type convGeom struct{ inC, inH, inW, outC, kh, kw, stride, pad int }

// convGeoms covers stride-1 and strided convolutions, 1x1 and wide kernels,
// zero and fat padding, and geometries where padding dominates entire rows.
var convGeoms = []convGeom{
	{1, 5, 5, 2, 3, 3, 1, 1},
	{3, 8, 9, 4, 3, 3, 1, 1},
	{2, 7, 7, 3, 5, 5, 1, 2},
	{1, 6, 6, 2, 1, 1, 1, 0},
	{2, 28, 28, 6, 5, 5, 1, 2},
	{3, 9, 9, 5, 3, 3, 2, 1},
	{2, 8, 8, 4, 3, 3, 2, 0},
	{4, 16, 16, 8, 3, 3, 1, 1},
	{1, 4, 4, 2, 3, 3, 1, 2},
	{2, 5, 3, 3, 3, 3, 2, 1},
}

// referenceConv is the historical conv forward: im2col, MatMul, bias
// broadcast.
func referenceConv(g tensor.Conv2DGeom, outC int, dst, x, w *tensor.Tensor, bias []float64) {
	b := x.Shape[0]
	cols := tensor.New(g.ColRows(), g.ColCols())
	sampleIn := g.InC * g.InH * g.InW
	sampleOut := outC * g.ColCols()
	for bi := 0; bi < b; bi++ {
		g.Im2ColInto(cols, x.Data[bi*sampleIn:(bi+1)*sampleIn])
		om := tensor.FromSlice(dst.Data[bi*sampleOut:(bi+1)*sampleOut], outC, g.ColCols())
		scalar{}.MatMul(om, w, cols, false)
	}
	hw := g.OutH * g.OutW
	for bi := 0; bi < b; bi++ {
		for oc := 0; oc < outC; oc++ {
			bv := bias[oc]
			seg := dst.Data[(bi*outC+oc)*hw : (bi*outC+oc+1)*hw]
			for i := range seg {
				seg[i] += bv
			}
		}
	}
}

func TestConv2DVariantsBitIdentical(t *testing.T) {
	r := rng.New(23)
	for _, cg := range convGeoms {
		g := tensor.NewConv2DGeom(cg.inC, cg.inH, cg.inW, cg.kh, cg.kw, cg.stride, cg.pad)
		for _, batch := range []int{1, 3} {
			x := tensor.New(batch, g.InC, g.InH, g.InW)
			w := tensor.New(cg.outC, g.ColRows())
			fill(x, r)
			fill(w, r)
			bias := make([]float64, cg.outC)
			for i := range bias {
				bias[i] = r.Gauss(0, 1)
			}
			want := tensor.New(batch, cg.outC, g.OutH, g.OutW)
			referenceConv(g, cg.outC, want, x, w, bias)
			cols := tensor.New(g.ColRows(), g.ColCols())
			backends := append([]Backend{scalar{}}, variants(t)...)
			for _, back := range backends {
				got := tensor.New(batch, cg.outC, g.OutH, g.OutW)
				fill(got, r)
				var ws *tensor.Tensor
				if back.UsesIm2Col() {
					ws = cols
				}
				back.Conv2D(g, cg.outC, got, x, w, bias, ws)
				if i, ok := bitsEqual(want, got); !ok {
					t.Fatalf("%s Conv2D %+v batch=%d: bit mismatch at %d: %g vs %g",
						back.Spec(), cg, batch, i, want.Data[i], got.Data[i])
				}
			}
		}
	}
}

// TestConv2DDenseSwitchBitIdentical pins both of blocked's convolution
// loops against the im2col reference across the zero-count switch: the
// output-stationary loop (at most len/convDenseZeroDiv exact zeros) and the
// scatter, on every convGeoms entry plus the ResNet and LeNet stems, at no
// zeros, one below, at and one above the switch, and all zeros. Planted
// zeros mix +0 and -0, the weights and bias carry both, and every
// destination starts as NaN. blocked runs with and without the panel
// workspace, parallel at one worker and at all CPUs.
func TestConv2DDenseSwitchBitIdentical(t *testing.T) {
	geoms := append(convGeoms[:len(convGeoms):len(convGeoms)],
		convGeom{3, 32, 32, 4, 3, 3, 1, 1}, // resnet stem
		convGeom{1, 28, 28, 6, 5, 5, 1, 2}, // lenet stem
	)
	r := rng.New(37)
	var dense, sparse int
	for _, cg := range geoms {
		g := tensor.NewConv2DGeom(cg.inC, cg.inH, cg.inW, cg.kh, cg.kw, cg.stride, cg.pad)
		const batch = 2
		n := batch * g.InC * g.InH * g.InW
		limit := n / convDenseZeroDiv
		w := tensor.New(cg.outC, g.ColRows())
		fill(w, r)
		bias := make([]float64, cg.outC)
		for i := range bias {
			bias[i] = r.Gauss(0, 1)
		}
		bias[0] = math.Copysign(0, -1)
		for _, zeros := range []int{0, limit - 1, limit, limit + 1, n} {
			if zeros < 0 {
				continue
			}
			x := tensor.New(batch, g.InC, g.InH, g.InW)
			for i := range x.Data {
				x.Data[i] = r.Gauss(0, 1)
			}
			for _, i := range r.Perm(n)[:zeros] {
				x.Data[i] = math.Copysign(0, float64(r.Intn(2))-0.5)
			}
			if denseInput(x.Data) != (zeros <= limit) {
				t.Fatalf("%+v: denseInput with %d of %d zeros = %v, switch at %d", cg, zeros, n, !(zeros <= limit), limit)
			}
			if zeros <= limit {
				dense++
			} else {
				sparse++
			}
			want := tensor.New(batch, cg.outC, g.OutH, g.OutW)
			referenceConv(g, cg.outC, want, x, w, bias)
			for _, back := range append([]Backend{blocked{}}, variants(t)...) {
				for _, ws := range []*tensor.Tensor{tensor.New(g.ColRows(), g.ColCols()), nil} {
					if ws != nil && !back.UsesIm2Col() {
						continue
					}
					got := tensor.New(want.Shape...)
					for i := range got.Data {
						got.Data[i] = math.NaN()
					}
					back.Conv2D(g, cg.outC, got, x, w, bias, ws)
					if i, ok := bitsEqual(want, got); !ok {
						t.Fatalf("%s Conv2D %+v zeros=%d/%d (switch at %d) workspace=%v: [%d] = %v (bits %#x), reference %v (bits %#x)",
							back.Spec(), cg, zeros, n, limit, ws != nil, i, got.Data[i], math.Float64bits(got.Data[i]),
							want.Data[i], math.Float64bits(want.Data[i]))
					}
				}
			}
		}
	}
	if dense == 0 || sparse == 0 {
		t.Fatalf("zero-count switch not exercised on both sides: %d dense, %d sparse inputs", dense, sparse)
	}
}

// TestParallelConcurrentCallers drives the shared pool from many goroutines
// at once: contended dispatches fall back to the serial path, and every
// caller must still produce bit-identical results.
func TestParallelConcurrentCallers(t *testing.T) {
	back, err := Parse("parallel")
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.NewConv2DGeom(3, 16, 16, 3, 3, 1, 1)
	const outC = 8
	r := rng.New(31)
	x := tensor.New(4, g.InC, g.InH, g.InW)
	w := tensor.New(outC, g.ColRows())
	fill(x, r)
	fill(w, r)
	bias := make([]float64, outC)
	for i := range bias {
		bias[i] = r.Gauss(0, 1)
	}
	want := tensor.New(4, outC, g.OutH, g.OutW)
	referenceConv(g, outC, want, x, w, bias)

	const callers = 8
	outs := make([]*tensor.Tensor, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		outs[c] = tensor.New(4, outC, g.OutH, g.OutW)
		wg.Add(1)
		go func(dst *tensor.Tensor) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				back.Conv2D(g, outC, dst, x, w, bias, nil)
			}
		}(outs[c])
	}
	wg.Wait()
	for c, got := range outs {
		if i, ok := bitsEqual(want, got); !ok {
			t.Fatalf("caller %d: bit mismatch at %d", c, i)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := Registered()
	for _, want := range []string{"scalar", "blocked", "parallel"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Registered() = %v, missing %q", names, want)
		}
	}
	if err := Register("", nil); err == nil {
		t.Fatal("Register with empty name and nil builder should fail")
	}
	if err := Register("scalar", func(*spec.Params) (Backend, error) { return scalar{}, nil }); err == nil {
		t.Fatal("duplicate Register should fail")
	}
	if _, err := Parse("nope"); err == nil || !strings.Contains(err.Error(), "registered") {
		t.Fatalf("Parse unknown backend: got %v, want listing hint", err)
	}
	if _, err := Parse("parallel:bogus=1"); err == nil {
		t.Fatal("unknown parameter should fail")
	}
	if _, err := Parse("parallel:workers=1.5"); err == nil {
		t.Fatal("fractional workers should fail")
	}
	if _, err := Parse("parallel:workers"); err == nil {
		t.Fatal("parameter without value should fail")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{"scalar", "blocked", "parallel", "parallel:workers=3"} {
		b, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if b.Spec() != spec {
			t.Fatalf("Parse(%q).Spec() = %q", spec, b.Spec())
		}
		b2, err := Parse(b.Spec())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", b.Spec(), err)
		}
		if b2.Spec() != b.Spec() {
			t.Fatalf("Spec round trip: %q -> %q", b.Spec(), b2.Spec())
		}
	}
	// workers=0 canonicalizes to the bare name (machine-independent spec).
	b, err := Parse("parallel:workers=0")
	if err != nil {
		t.Fatal(err)
	}
	if b.Spec() != "parallel" {
		t.Fatalf("parallel:workers=0 should render as %q, got %q", "parallel", b.Spec())
	}
}

func TestFromFlag(t *testing.T) {
	b, listing, err := FromFlag("")
	if err != nil || listing != "" || b == nil || b.Name() != Default().Name() {
		t.Fatalf("FromFlag(\"\") = %v, %q, %v; want the %s default", b, listing, err, Default().Name())
	}
	b, listing, err = FromFlag("list")
	if err != nil || b != nil {
		t.Fatalf("FromFlag(list) = %v, %v", b, err)
	}
	for _, want := range []string{"scalar", "blocked", "parallel"} {
		if !strings.Contains(listing, want) {
			t.Fatalf("listing %q missing %q", listing, want)
		}
	}
	if _, _, err = FromFlag("nope"); err == nil {
		t.Fatal("FromFlag(nope) should fail")
	}
	b, _, err = FromFlag(fmt.Sprintf("parallel:workers=%d", runtime.NumCPU()))
	if err != nil || b.Name() != "parallel" {
		t.Fatalf("FromFlag(parallel:workers=N) = %v, %v", b, err)
	}
}
