package eval_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"swim/internal/device"
	"swim/internal/eval"
	"swim/internal/kernel"
	"swim/internal/mapping"
	"swim/internal/models"
	"swim/internal/nn"
	"swim/internal/rng"
	"swim/internal/tensor"
)

// scalarKernel returns the reference backend every other backend is pinned
// against.
func scalarKernel(t testing.TB) kernel.Backend {
	t.Helper()
	k, err := kernel.Parse("scalar")
	if err != nil {
		t.Fatalf("kernel.Parse(scalar): %v", err)
	}
	return k
}

// kernelVariants enumerates every non-reference backend pinned bit-for-bit
// against scalar, covering the parallel pool at one worker and at the full
// CPU count (the two ends of its partitioning space).
func kernelVariants(t testing.TB) []kernel.Backend {
	t.Helper()
	specs := []string{
		"blocked",
		"parallel:workers=1",
		fmt.Sprintf("parallel:workers=%d", runtime.NumCPU()),
	}
	out := make([]kernel.Backend, 0, len(specs))
	for _, s := range specs {
		k, err := kernel.Parse(s)
		if err != nil {
			t.Fatalf("kernel.Parse(%q): %v", s, err)
		}
		out = append(out, k)
	}
	return out
}

// TestPlanKernelBackendsBitIdentical pins the registry's determinism
// contract at the plan level: for every registered model and every batch
// size (1 exercises single-row paths, 7 the tile tails, 64 the steady
// state), a plan compiled with blocked or parallel produces logits
// bit-identical to the scalar reference.
func TestPlanKernelBackendsBitIdentical(t *testing.T) {
	for _, b := range builders {
		for _, batch := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("%s/batch=%d", b.name, batch), func(t *testing.T) {
				r := rng.New(21)
				net := b.build(r)
				x := randomInput(batch, b.sample, r)

				ref, err := eval.CompileKernel(net, x.Shape, nil, scalarKernel(t))
				if err != nil {
					t.Fatalf("Compile: %v", err)
				}
				want := append([]float64(nil), ref.Forward(x).Data...)

				for _, k := range kernelVariants(t) {
					pl, err := eval.CompileKernel(net, x.Shape, nil, k)
					if err != nil {
						t.Fatalf("CompileKernel(%s): %v", k.Spec(), err)
					}
					got := pl.Forward(x)
					for i := range want {
						if got.Data[i] != want[i] {
							t.Fatalf("backend %s: logit [%d] = %v, scalar %v (not bit-identical)",
								k.Spec(), i, got.Data[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestPlanKernelBackendsAnalogTwin runs the same pin on the crossbar-mapped
// (analog) twin of each model: its MatVec-backed layers bypass the kernel
// tier entirely, so every backend must leave the mapped network's logits
// untouched — compiling with a non-default backend is always safe, digital
// or analog.
func TestPlanKernelBackendsAnalogTwin(t *testing.T) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			r := rng.New(23)
			net := b.build(r)
			dm := device.Default(4, 0.5)
			table := dm.CycleTable(50, rng.New(29))
			mp, err := mapping.New(net, dm, table, rng.New(31))
			if err != nil {
				t.Fatalf("mapping.New: %v", err)
			}
			x := randomInput(7, b.sample, r)

			ref, err := eval.CompileKernel(mp.Net, x.Shape, nil, scalarKernel(t))
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			want := append([]float64(nil), ref.Forward(x).Data...)

			for _, k := range kernelVariants(t) {
				pl, err := eval.CompileKernel(mp.Net, x.Shape, nil, k)
				if err != nil {
					t.Fatalf("CompileKernel(%s): %v", k.Spec(), err)
				}
				got := pl.Forward(x)
				for i := range want {
					if got.Data[i] != want[i] {
						t.Fatalf("backend %s: analog logit [%d] = %v, scalar %v",
							k.Spec(), i, got.Data[i], want[i])
					}
				}
			}
		})
	}
}

// TestContainerForwardIntoMatchesPlan runs ResNet-18's trunk through
// Sequential.ForwardInto directly, which recurses into Residual.ForwardInto
// for its identity and projection skips and passes the backend down to every
// child. Compiled plans flatten the containers instead, so this is the only
// caller of the container path: under every registered backend, with and
// without a scratch arena, its logits must match the plan's bit for bit.
func TestContainerForwardIntoMatchesPlan(t *testing.T) {
	r := rng.New(43)
	net := models.ResNet18(10, 4, 6, r)
	skips := map[bool]int{}
	nn.Walk(net.Trunk, func(l nn.Layer) {
		if res, ok := l.(*nn.Residual); ok {
			skips[res.Shortcut == nil]++
		}
	})
	if skips[true] == 0 || skips[false] == 0 {
		t.Fatalf("ResNet-18 has %d identity and %d projection residuals; want both kinds", skips[true], skips[false])
	}
	x := randomInput(7, []int{3, 32, 32}, r)
	shape, err := net.Trunk.OutShape(x.Shape)
	if err != nil {
		t.Fatalf("OutShape: %v", err)
	}
	for _, spec := range kernel.Registered() {
		k, err := kernel.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := eval.CompileKernel(net, x.Shape, nil, k)
		if err != nil {
			t.Fatalf("CompileKernel(%s): %v", spec, err)
		}
		want := pl.Forward(x).Data
		for _, scratch := range []*tensor.Arena{tensor.NewArena(), nil} {
			got := tensor.New(shape...)
			net.Trunk.ForwardInto(got, x, scratch, k)
			for i := range want {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s (arena %v): container logit [%d] = %v, plan %v",
						spec, scratch != nil, i, got.Data[i], want[i])
				}
			}
		}
	}
}

// TestEvaluatorKernelCountsMatch pins the dataset-level walk (full batches
// plus tail batch) across backends: CountCorrect, being a function of
// bit-identical logits, must agree exactly.
func TestEvaluatorKernelCountsMatch(t *testing.T) {
	r := rng.New(37)
	net := models.LeNet(10, 4, r)
	const n = 50 // batch 16 -> three full batches + tail of 2
	x := randomInput(n, []int{1, 28, 28}, r)
	y := make([]int, n)
	for i := range y {
		y[i] = r.Intn(10)
	}
	want, err := eval.NewEvaluatorKernel(net, nil, scalarKernel(t)).CountCorrect(x, y, 16)
	if err != nil {
		t.Fatalf("scalar CountCorrect: %v", err)
	}
	for _, k := range kernelVariants(t) {
		got, err := eval.NewEvaluatorKernel(net, nil, k).CountCorrect(x, y, 16)
		if err != nil {
			t.Fatalf("CountCorrect(%s): %v", k.Spec(), err)
		}
		if got != want {
			t.Fatalf("backend %s counted %d correct, scalar %d", k.Spec(), got, want)
		}
	}
}

// TestPlanKernelZeroAlloc extends the zero-allocation pin to every backend:
// blocked re-tiles with stack-resident accumulators and parallel dispatches
// through the persistent shared pool, so neither may allocate in steady
// state.
func TestPlanKernelZeroAlloc(t *testing.T) {
	for _, b := range builders {
		for _, k := range kernelVariants(t) {
			t.Run(b.name+"/"+k.Spec(), func(t *testing.T) {
				r := rng.New(41)
				net := b.build(r)
				x := randomInput(8, b.sample, r)
				pl, err := eval.CompileKernel(net, x.Shape, nil, k)
				if err != nil {
					t.Fatalf("CompileKernel: %v", err)
				}
				pl.Forward(x) // grow the arena to its fixed point
				if allocs := testing.AllocsPerRun(10, func() { pl.Forward(x) }); allocs != 0 {
					t.Fatalf("Plan.Forward with %s allocates %v times per call, want 0", k.Spec(), allocs)
				}
			})
		}
	}
}
