package eval

import (
	"fmt"
	"math"
	"testing"

	"swim/internal/crossbar"
	"swim/internal/device"
	"swim/internal/kernel"
	"swim/internal/models"
	"swim/internal/nn"
	"swim/internal/rng"
	"swim/internal/tensor"
)

// countingKernel forwards every primitive to kernel.Default() and counts
// the calls.
type countingKernel struct {
	kernel.Backend
	calls int
}

func (k *countingKernel) MatMul(c, a, b *tensor.Tensor, acc bool) {
	k.calls++
	k.Backend.MatMul(c, a, b, acc)
}

func (k *countingKernel) MatMulTransA(c, a, b *tensor.Tensor, acc bool) {
	k.calls++
	k.Backend.MatMulTransA(c, a, b, acc)
}

func (k *countingKernel) MatMulTransB(c, a, b *tensor.Tensor, acc bool) {
	k.calls++
	k.Backend.MatMulTransB(c, a, b, acc)
}

func (k *countingKernel) Linear(dst, x, w *tensor.Tensor, bias []float64) {
	k.calls++
	k.Backend.Linear(dst, x, w, bias)
}

func (k *countingKernel) Im2Col(g tensor.Conv2DGeom, cols *tensor.Tensor, x []float64) {
	k.calls++
	k.Backend.Im2Col(g, cols, x)
}

func (k *countingKernel) Conv2D(g tensor.Conv2DGeom, outC int, dst, x, w *tensor.Tensor, bias []float64, cols *tensor.Tensor) {
	k.calls++
	k.Backend.Conv2D(g, outC, dst, x, w, bias, cols)
}

// mutation changes one piece of a network's inference state and names the
// layer it changed (nil: nothing changed).
type mutation struct {
	name  string
	apply func(r *rng.Source) nn.Layer
}

// mutations lists every kind of state change the differential test drives
// through a binding, for the layers net has.
func mutations(net *nn.Network) []mutation {
	var mapped, biased []nn.Layer
	var bns []*nn.BatchNorm2D
	var qs []*nn.QuantAct
	nn.Walk(net.Trunk, func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.Conv2D, *nn.Linear:
			mapped = append(mapped, l)
			biased = append(biased, l)
		case *nn.BatchNorm2D:
			bns = append(bns, v)
		case *nn.QuantAct:
			qs = append(qs, v)
		}
	})
	// Weight 0 of every mapped layer is kept at ±0 for the sign flips; the
	// other mutations leave it alone.
	for _, l := range mapped {
		l.Params()[0].Data.Data[0] = 0
	}
	pick := func(r *rng.Source, p *nn.Param) *float64 { return &p.Data.Data[1+r.Intn(len(p.Data.Data)-1)] }
	ms := []mutation{{"none", func(*rng.Source) nn.Layer { return nil }}}
	if len(mapped) > 0 {
		ms = append(ms,
			mutation{"weight", func(r *rng.Source) nn.Layer {
				l := mapped[r.Intn(len(mapped))]
				*pick(r, l.Params()[0]) += r.Gauss(0, 0.05)
				return l
			}},
			mutation{"bias", func(r *rng.Source) nn.Layer {
				l := biased[r.Intn(len(biased))]
				*pick(r, l.Params()[1]) += r.Gauss(0, 0.05)
				return l
			}},
			mutation{"zero-flip", func(r *rng.Source) nn.Layer {
				l := mapped[r.Intn(len(mapped))]
				w := &l.Params()[0].Data.Data[0]
				if math.Signbit(*w) {
					*w = 0
				} else {
					*w = math.Copysign(0, -1)
				}
				return l
			}})
	}
	if len(bns) > 0 {
		ms = append(ms, mutation{"bn-mean", func(r *rng.Source) nn.Layer {
			bn := bns[r.Intn(len(bns))]
			bn.RunMean.Data[r.Intn(bn.C)] += r.Gauss(0, 0.1)
			return bn
		}})
	}
	if len(qs) > 0 {
		ms = append(ms,
			mutation{"quant-max", func(r *rng.Source) nn.Layer {
				q := qs[r.Intn(len(qs))]
				q.Max *= 0.8 + 0.4*r.Float64()
				return q
			}},
			mutation{"quant-disabled", func(r *rng.Source) nn.Layer {
				q := qs[r.Intn(len(qs))]
				q.Disabled = !q.Disabled
				return q
			}})
	}
	return ms
}

// stepOf returns the plan step that runs l.
func stepOf(t *testing.T, pl *Plan, l nn.Layer) int {
	t.Helper()
	for i, st := range pl.steps {
		if st.kind == opForward && st.layer == l {
			return i
		}
	}
	t.Fatalf("layer %s is not in the plan", l.Name())
	return -1
}

// checkAgainstFresh compares everything b remembers with a fresh full pass:
// the correct count, every batch's checkpoint at every resume point, and the
// logits its plans hold from the last batch.
func checkAgainstFresh(t *testing.T, b *Binding, got int) {
	t.Helper()
	n := b.x.Shape[0]
	sample := b.x.Size() / n
	want := 0
	for lo := 0; lo < n; lo += b.batch {
		hi := min(lo+b.batch, n)
		view := tensor.FromSlice(b.x.Data[lo*sample:hi*sample], append([]int{hi - lo}, b.x.Shape[1:]...)...)
		ref, err := Compile(b.ev.net, view.Shape, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh := make([][]float64, len(ref.resumes))
		for k, rp := range ref.resumes {
			fresh[k] = make([]float64, (hi-lo)*rp.per)
		}
		logits := ref.run(view, 0, fresh, 0)
		want += nn.CountCorrectLogits(logits, b.y[lo:hi])
		for k, rp := range ref.resumes {
			ck := b.ck[k][lo*rp.per : hi*rp.per]
			for i, v := range fresh[k] {
				if math.Float64bits(ck[i]) != math.Float64bits(v) {
					t.Fatalf("samples [%d,%d): checkpoint before step %d [%d] = %v, fresh pass %v", lo, hi, rp.step, i, ck[i], v)
				}
			}
		}
		if hi == n {
			held := b.ev.plans[hi-lo].bufs[b.ev.plans[hi-lo].out].Data
			for i, v := range logits.Data {
				if math.Float64bits(held[i]) != math.Float64bits(v) {
					t.Fatalf("samples [%d,%d): logit [%d] = %v, fresh pass %v", lo, hi, i, held[i], v)
				}
			}
		}
	}
	if got != want {
		t.Fatalf("binding counted %d correct, fresh pass %d", got, want)
	}
}

// TestBindingMatchesFreshPass drives a binding through random sequences of
// state changes on LeNet, ResNet-18 (identity and projection residuals,
// batch-norm) and the crossbar-mapped LeNet twin. Before every call it
// checks where the call will start — the latest resume point at or before
// the changed layer, nothing at all when no state changed, always step 0
// on the analog twin, whose layers eval cannot enumerate — and after it
// compares what the binding remembers with a fresh full pass, bit for bit.
// The evaluation set is 20 samples in batches of 8: two full batches and a
// tail.
func TestBindingMatchesFreshPass(t *testing.T) {
	dev := device.Default(4, 0.5)
	cases := []struct {
		name   string
		sample []int
		build  func(r *rng.Source) *nn.Network
		analog bool
	}{
		{"lenet", []int{1, 28, 28}, func(r *rng.Source) *nn.Network { return models.LeNet(10, 4, r) }, false},
		{"resnet18", []int{3, 32, 32}, func(r *rng.Source) *nn.Network { return models.ResNet18(10, 4, 6, r) }, false},
		{"lenet-analog", []int{1, 28, 28}, func(r *rng.Source) *nn.Network {
			net, _, err := crossbar.BuildAnalog(models.LeNet(10, 4, r), crossbar.DefaultConfig(dev), r)
			if err != nil {
				panic(err)
			}
			return net
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(61)
			net := tc.build(r)
			nn.Walk(net.Trunk, func(l nn.Layer) {
				if bn, ok := l.(*nn.BatchNorm2D); ok {
					for c := 0; c < bn.C; c++ {
						bn.RunMean.Data[c], bn.RunVar.Data[c] = r.Gauss(0, 0.1), 0.5+r.Float64()
					}
				}
			})
			const n = 20
			x := tensor.New(append([]int{n}, tc.sample...)...)
			for i := range x.Data {
				x.Data[i] = r.Gauss(0, 1)
			}
			y := make([]int, n)
			for i := range y {
				y[i] = r.Intn(10)
			}
			ms := mutations(net)
			k := &countingKernel{Backend: kernel.Default()}
			b, err := NewEvaluatorKernel(net, nil, k).Bind(x, y, 8)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.CountCorrect()
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstFresh(t, b, got)
			full := k.calls

			for i := 0; i < 60; i++ {
				m := ms[r.Intn(len(ms))]
				changed := m.apply(r)
				wantFrom := len(b.pl.steps)
				switch {
				case tc.analog:
					wantFrom = 0
				case changed != nil:
					wantFrom = b.pl.resumeAt(stepOf(t, b.pl, changed))
				}
				from := b.firstChange()
				if from < len(b.pl.steps) {
					from = b.pl.resumeAt(from)
				}
				if from != wantFrom {
					t.Fatalf("step %d (%s): binding would start at step %d, want %d (%d: remember the count)",
						i, m.name, from, wantFrom, len(b.pl.steps))
				}
				calls := k.calls
				got, err := b.CountCorrect()
				if err != nil {
					t.Fatal(err)
				}
				if !tc.analog && changed == nil && k.calls != calls {
					t.Fatalf("step %d: unchanged network made %d kernel calls, want 0", i, k.calls-calls)
				}
				checkAgainstFresh(t, b, got)
			}

			if tc.name == "lenet" {
				fc3 := net.Trunk.Layers[15].(*nn.Linear)
				fc3.W.Data.Data[0] += 0.01
				calls := k.calls
				if _, err := b.CountCorrect(); err != nil {
					t.Fatal(err)
				}
				if d := k.calls - calls; d == 0 || d >= full {
					t.Fatalf("an fc3 change made %d kernel calls, a full pass %d", d, full)
				}
			}
		})
	}
}

// TestResumePoints pins where LeNet and ResNet-18 plans can resume: every
// parametric step after conv1 in LeNet (1,780 floats per sample); in
// ResNet-18 stem.bn, the first step of every residual block and the
// classifier — never a step inside a block, where the block's input is
// live beside the branch being computed.
func TestResumePoints(t *testing.T) {
	r := rng.New(3)
	lenet, err := Compile(models.LeNet(10, 4, r), []int{4, 1, 28, 28}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	per := 0
	for _, rp := range lenet.resumes {
		names = append(names, lenet.infos[rp.step].Name)
		per += rp.per
	}
	if got := fmt.Sprint(names); got != "[conv2 fc1 fc2 fc3]" || per != 1780 {
		t.Fatalf("LeNet resumes at %s with %d floats per sample, want [conv2 fc1 fc2 fc3] and 1780", got, per)
	}

	resnet, err := Compile(models.ResNet18(10, 4, 6, r), []int{2, 3, 32, 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	names = names[:0]
	for _, rp := range resnet.resumes {
		names = append(names, resnet.infos[rp.step].Name)
	}
	want := "[stem.bn layer1.0.conv1 layer1.1.conv1 layer2.0.conv1 layer2.1.conv1 layer3.0.conv1 layer3.1.conv1 layer4.0.conv1 layer4.1.conv1 fc]"
	if got := fmt.Sprint(names); got != want {
		t.Fatalf("ResNet-18 resumes at %s, want %s", got, want)
	}
}

// TestBindingZeroAlloc pins the binding's steady state at zero heap
// allocations for each kind of call: full (conv1 changed), resumed (fc3
// changed) and unchanged.
func TestBindingZeroAlloc(t *testing.T) {
	r := rng.New(8)
	net := models.LeNet(10, 4, r)
	const n = 20
	x := tensor.New(n, 1, 28, 28)
	for i := range x.Data {
		x.Data[i] = r.Gauss(0, 1)
	}
	y := make([]int, n)
	b, err := NewEvaluator(net, nil).Bind(x, y, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CountCorrect(); err != nil { // warm the arena
		t.Fatal(err)
	}
	layers := net.Trunk.Layers
	for _, tc := range []struct {
		name string
		w    []float64
	}{
		{"full", layers[0].(*nn.Conv2D).W.Data.Data},
		{"resumed", layers[15].(*nn.Linear).W.Data.Data},
		{"unchanged", nil},
	} {
		if allocs := testing.AllocsPerRun(10, func() {
			if tc.w != nil {
				tc.w[0] += 1e-3
			}
			if _, err := b.CountCorrect(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%s Binding.CountCorrect allocates %v times per call, want 0", tc.name, allocs)
		}
	}
}

// TestBindingReclaimsTakenStorage: two bindings sharing one arena take its
// kept region in turn; each still measures correctly, re-running in full
// after the other took its storage.
func TestBindingReclaimsTakenStorage(t *testing.T) {
	r := rng.New(12)
	net := models.LeNet(10, 4, r)
	x := tensor.New(12, 1, 28, 28)
	for i := range x.Data {
		x.Data[i] = r.Gauss(0, 1)
	}
	y := make([]int, 12)
	for i := range y {
		y[i] = r.Intn(10)
	}
	ev := NewEvaluator(net, nil)
	a, err := ev.Bind(x, y, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.Bind(x, y, 5)
	if err != nil {
		t.Fatal(err)
	}
	fc3 := net.Trunk.Layers[15].(*nn.Linear)
	for i := 0; i < 4; i++ {
		fc3.W.Data.Data[i] -= 0.2
		for _, bd := range []*Binding{a, b} {
			got, err := bd.CountCorrect()
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstFresh(t, bd, got)
		}
	}
}

// TestTailPlanSharesArrays: an evaluator's tail plan runs on prefixes of
// its full-batch plan's activation arrays and allocates none of its own.
func TestTailPlanSharesArrays(t *testing.T) {
	r := rng.New(14)
	net := models.ResNet18(10, 4, 6, r)
	x := tensor.New(5, 3, 32, 32)
	for i := range x.Data {
		x.Data[i] = r.Gauss(0, 1)
	}
	ev := NewEvaluator(net, nil)
	if _, err := ev.CountCorrect(x, make([]int, 5), 3); err != nil {
		t.Fatal(err)
	}
	full, tail := ev.plans[3], ev.plans[2]
	if tail.mem != 0 || full.mem == 0 {
		t.Fatalf("full plan allocated %d floats, tail plan %d; want the tail to allocate none", full.mem, tail.mem)
	}
	for i := 1; i < len(full.bufs); i++ {
		if &tail.bufs[i].Data[0] != &full.bufs[i].Data[0] {
			t.Fatalf("tail buffer %d does not start the full plan's", i)
		}
	}
}
