package eval_test

import (
	"fmt"
	"strings"
	"testing"

	"swim/internal/eval"
	"swim/internal/models"
	"swim/internal/nn"
	"swim/internal/rng"
	"swim/internal/tensor"
)

// builders enumerates every registered model in internal/models (widths
// slimmed for test runtime; the topology — and therefore every layer kind
// and backprop rule — is identical to the paper-scale models).
var builders = []struct {
	name   string
	sample []int
	build  func(r *rng.Source) *nn.Network
}{
	{"lenet", []int{1, 28, 28}, func(r *rng.Source) *nn.Network { return models.LeNet(10, 4, r) }},
	{"convnet", []int{3, 32, 32}, func(r *rng.Source) *nn.Network { return models.ConvNet(10, 4, 6, r) }},
	{"resnet18", []int{3, 32, 32}, func(r *rng.Source) *nn.Network { return models.ResNet18(10, 4, 6, r) }},
}

func randomInput(batch int, sample []int, r *rng.Source) *tensor.Tensor {
	shape := append([]int{batch}, sample...)
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = r.Gauss(0, 1)
	}
	return x
}

// TestPlanMatchesLegacyForward pins the compiled plan bit-for-bit against
// the legacy evaluation-mode Network.Forward for every registered model at
// batch sizes 1, 7 and 64 (the odd batch catches stride/offset bugs). This
// is the guarantee that Table 1 / Fig. 1 / Fig. 2 numbers cannot drift when
// evaluation routes through plans.
func TestPlanMatchesLegacyForward(t *testing.T) {
	for _, b := range builders {
		for _, batch := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("%s/batch=%d", b.name, batch), func(t *testing.T) {
				r := rng.New(7)
				net := b.build(r)
				x := randomInput(batch, b.sample, r)

				plan, err := eval.Compile(net, x.Shape, nil)
				if err != nil {
					t.Fatalf("Compile: %v", err)
				}
				want := net.Forward(x, false)
				got := plan.Forward(x)

				if len(got.Data) != len(want.Data) {
					t.Fatalf("logits size %d, want %d", len(got.Data), len(want.Data))
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("logit [%d] = %v, legacy %v (plan is not bit-identical)",
							i, got.Data[i], want.Data[i])
					}
				}
				// A second pass over the same plan (arena reset + re-carve)
				// must reproduce the result exactly.
				again := plan.Forward(x)
				for i := range want.Data {
					if again.Data[i] != want.Data[i] {
						t.Fatalf("second pass drifted at [%d]: %v vs %v", i, again.Data[i], want.Data[i])
					}
				}
			})
		}
	}
}

// TestEvaluatorMatchesLegacyAccuracy checks the batched dataset walk
// (including the tail batch) against the legacy per-batch CountCorrect.
func TestEvaluatorMatchesLegacyAccuracy(t *testing.T) {
	r := rng.New(11)
	net := models.LeNet(10, 4, r)
	const n = 50 // batch 16 -> three full batches + tail of 2
	x := randomInput(n, []int{1, 28, 28}, r)
	y := make([]int, n)
	for i := range y {
		y[i] = r.Intn(10)
	}

	legacy := 0
	for start := 0; start < n; start += 16 {
		end := start + 16
		if end > n {
			end = n
		}
		sample := x.Size() / n
		xb := tensor.FromSlice(x.Data[start*sample:end*sample], end-start, 1, 28, 28)
		legacy += net.CountCorrect(xb, y[start:end])
	}

	ev := eval.NewEvaluator(net, nil)
	got, err := ev.CountCorrect(x, y, 16)
	if err != nil {
		t.Fatalf("CountCorrect: %v", err)
	}
	if got != legacy {
		t.Fatalf("evaluator counted %d correct, legacy %d", got, legacy)
	}
	acc, err := ev.Accuracy(x, y, 16)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	if want := 100 * float64(legacy) / n; acc != want {
		t.Fatalf("accuracy %v, want %v", acc, want)
	}
}

// TestPlanForwardZeroAlloc pins the tentpole claim: once compiled, a plan's
// Forward (and the evaluator's full-dataset Accuracy walk) performs zero
// heap allocations.
func TestPlanForwardZeroAlloc(t *testing.T) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			r := rng.New(3)
			net := b.build(r)
			x := randomInput(8, b.sample, r)
			plan, err := eval.Compile(net, x.Shape, nil)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			if allocs := testing.AllocsPerRun(10, func() { plan.Forward(x) }); allocs != 0 {
				t.Fatalf("Plan.Forward allocates %v times per call, want 0", allocs)
			}
		})
	}
}

// TestEvaluatorAccuracyZeroAlloc covers the dataset-level walk: after the
// full-batch and tail-batch plans are compiled, Accuracy is allocation-free.
func TestEvaluatorAccuracyZeroAlloc(t *testing.T) {
	r := rng.New(5)
	net := models.LeNet(10, 4, r)
	const n = 20
	x := randomInput(n, []int{1, 28, 28}, r)
	y := make([]int, n)
	for i := range y {
		y[i] = r.Intn(10)
	}
	ev := eval.NewEvaluator(net, nil)
	if _, err := ev.Accuracy(x, y, 8); err != nil { // compiles batch 8 + tail 4
		t.Fatalf("warm-up Accuracy: %v", err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := ev.Accuracy(x, y, 8); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Evaluator.Accuracy allocates %v times per call, want 0", allocs)
	}
}

// TestPlanWeightMutationVisible checks that a plan reads live weights:
// re-programming a parameter between Forward calls (the write-verify loop's
// pattern) must change the logits without recompilation.
func TestPlanWeightMutationVisible(t *testing.T) {
	r := rng.New(9)
	net := models.LeNet(10, 4, r)
	x := randomInput(4, []int{1, 28, 28}, r)
	plan, err := eval.Compile(net, x.Shape, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	before := append([]float64(nil), plan.Forward(x).Data...)

	p := net.MappedParams()[0]
	for i := range p.Data.Data {
		p.Data.Data[i] *= 1.5
	}
	after := plan.Forward(x)
	want := net.Forward(x, false)
	changed := false
	for i := range want.Data {
		if after.Data[i] != want.Data[i] {
			t.Fatalf("mutated-weight logit [%d] = %v, legacy %v", i, after.Data[i], want.Data[i])
		}
		if after.Data[i] != before[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("weight mutation did not affect plan output")
	}
}

// TestCompileRejectsBadInput covers the compiler's error paths.
func TestCompileRejectsBadInput(t *testing.T) {
	r := rng.New(1)
	net := models.LeNet(10, 4, r)
	if _, err := eval.Compile(nil, []int{1, 1, 28, 28}, nil); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := eval.Compile(net, []int{4}, nil); err == nil {
		t.Fatal("unbatched input shape accepted")
	}
	if _, err := eval.Compile(net, []int{4, 3, 32, 32}, nil); err == nil {
		t.Fatal("mismatched input geometry accepted")
	}
}

// TestPlanSteps sanity-checks the compiled step introspection: the flattened
// ResNet plan must contain residual branch-sum steps and end at the
// classifier's [B, classes] logits. It also pins the fused steps: every
// ReLU in the built-in models runs with the QuantAct after it, and every
// MaxPool2D with them, so no plan has a step of its own for either; LeNet
// compiles to ten steps, not sixteen, whose buffers hold 8,698 floats per
// sample, not 21,510.
func TestPlanSteps(t *testing.T) {
	r := rng.New(2)
	for _, b := range builders {
		plan, err := eval.Compile(b.build(r), append([]int{4}, b.sample...), nil)
		if err != nil {
			t.Fatalf("Compile %s: %v", b.name, err)
		}
		for _, s := range plan.Steps() {
			if s.Name == "relu" || strings.HasPrefix(s.Name, "pool") {
				t.Fatalf("%s plan runs %s as a step of its own", b.name, s.Name)
			}
		}
	}
	lenet, err := eval.Compile(models.LeNet(10, 4, r), []int{4, 1, 28, 28}, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var names []string
	per := 0
	for _, s := range lenet.Steps() {
		names = append(names, s.Name)
		n := 1
		for _, d := range s.OutShape {
			n *= d
		}
		per += n / 4
	}
	want := "[conv1 relu+q1+pool1 conv2 relu+q2+pool2 flatten fc1 relu+q3 fc2 relu+q4 fc3]"
	if got := fmt.Sprint(names); got != want || per != 8698 {
		t.Fatalf("LeNet compiles to %s with %d floats per sample, want %s and 8698", got, per, want)
	}
	if got := lenet.Footprint(); got != 4*per {
		t.Fatalf("LeNet plan allocated %d floats before its first pass, want its buffers' %d", got, 4*per)
	}

	net := models.ResNet18(10, 4, 6, r)
	plan, err := eval.Compile(net, []int{7, 3, 32, 32}, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	adds := 0
	for _, s := range plan.Steps() {
		if s.Name == "+" {
			adds++
		}
	}
	if adds != 8 { // four stages x two blocks
		t.Fatalf("ResNet-18 plan has %d branch sums, want 8", adds)
	}
	if out := plan.OutShape(); len(out) != 2 || out[0] != 7 || out[1] != 10 {
		t.Fatalf("plan output shape %v, want [7 10]", out)
	}
	if plan.Footprint() == 0 {
		t.Fatal("plan reports zero footprint")
	}
}

// TestEvaluatorRejectsEmptySet guards the empty-evaluation-set edge: the
// evaluator reports an error instead of dividing 0/0 into a NaN accuracy or
// panicking on the per-sample integer division.
func TestEvaluatorRejectsEmptySet(t *testing.T) {
	r := rng.New(4)
	net := models.LeNet(10, 4, r)
	empty := &tensor.Tensor{Shape: []int{0, 1, 28, 28}, Data: nil}
	if _, err := eval.NewEvaluator(net, nil).Accuracy(empty, nil, 8); err == nil {
		t.Fatal("empty evaluation set accepted")
	}
}
