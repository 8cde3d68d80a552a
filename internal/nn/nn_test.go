package nn

import (
	"math"
	"reflect"
	"testing"

	"swim/internal/rng"
	"swim/internal/stat"
	"swim/internal/tensor"
)

// lossAt evaluates the network loss for the current parameter values.
func lossAt(n *Network, x *tensor.Tensor, labels []int, train bool) float64 {
	logits := n.Forward(x, train, tensor.NewArena())
	return n.Loss.Forward(logits, labels, tensor.NewArena())
}

// fdGrad computes a central-difference gradient for one scalar parameter.
func fdGrad(n *Network, p *Param, i int, x *tensor.Tensor, labels []int, train bool, eps float64) float64 {
	orig := p.Data.Data[i]
	p.Data.Data[i] = orig + eps
	fp := lossAt(n, x, labels, train)
	p.Data.Data[i] = orig - eps
	fm := lossAt(n, x, labels, train)
	p.Data.Data[i] = orig
	return (fp - fm) / (2 * eps)
}

// fdHess computes a central-difference second derivative for one scalar.
func fdHess(n *Network, p *Param, i int, x *tensor.Tensor, labels []int, eps float64) float64 {
	orig := p.Data.Data[i]
	f0 := lossAt(n, x, labels, false)
	p.Data.Data[i] = orig + eps
	fp := lossAt(n, x, labels, false)
	p.Data.Data[i] = orig - eps
	fm := lossAt(n, x, labels, false)
	p.Data.Data[i] = orig
	return (fp - 2*f0 + fm) / (eps * eps)
}

func randInput(r *rng.Source, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = r.Gauss(0, 1)
	}
	return t
}

func checkGrads(t *testing.T, n *Network, x *tensor.Tensor, labels []int, train bool, tol float64) {
	t.Helper()
	n.ZeroGrad()
	n.LossGrad(x, labels, train, tensor.NewArena())
	for _, p := range n.Params() {
		for i := range p.Data.Data {
			got := p.Grad.Data[i]
			want := fdGrad(n, p, i, x, labels, train, 1e-5)
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic grad %.8g vs FD %.8g", p.Name, i, got, want)
			}
		}
	}
}

// --- gradient correctness -------------------------------------------------

func TestLinearGradFD(t *testing.T) {
	r := rng.New(1)
	net := NewNetwork("mlp", NewSequential("trunk",
		NewLinear("fc1", 6, 5, r), NewReLU(), NewLinear("fc2", 5, 3, r),
	), NewSoftmaxCrossEntropy())
	x := randInput(r, 4, 6)
	checkGrads(t, net, x, []int{0, 2, 1, 1}, false, 1e-5)
}

func TestConvPoolGradFD(t *testing.T) {
	r := rng.New(2)
	net := NewNetwork("cnn", NewSequential("trunk",
		NewConv2D("c1", 2, 8, 8, 3, 3, 3, 1, 1, r),
		NewReLU(),
		NewMaxPool2D("p1", 2, 2),
		NewFlatten(),
		NewLinear("fc", 3*4*4, 3, r),
	), NewSoftmaxCrossEntropy())
	x := randInput(r, 2, 2, 8, 8)
	checkGrads(t, net, x, []int{1, 2}, false, 1e-5)
}

func TestAvgPoolStridedConvGradFD(t *testing.T) {
	r := rng.New(3)
	net := NewNetwork("cnn", NewSequential("trunk",
		NewConv2D("c1", 1, 9, 9, 2, 3, 3, 2, 1, r),
		NewReLU(),
		NewAvgPool2D("p1", 2, 2),
		NewFlatten(),
		NewLinear("fc", 2*2*2, 4, r),
	), NewSoftmaxCrossEntropy())
	x := randInput(r, 3, 1, 9, 9)
	checkGrads(t, net, x, []int{0, 3, 2}, false, 1e-5)
}

func TestBatchNormGradFDTrainAndEval(t *testing.T) {
	r := rng.New(4)
	build := func() *Network {
		rr := rng.New(4)
		return NewNetwork("bn", NewSequential("trunk",
			NewConv2D("c1", 1, 6, 6, 2, 3, 3, 1, 1, rr),
			NewBatchNorm2D("bn1", 2),
			NewReLU(),
			NewFlatten(),
			NewLinear("fc", 2*6*6, 3, rr),
		), NewSoftmaxCrossEntropy())
	}
	x := randInput(r, 4, 1, 6, 6)
	labels := []int{0, 1, 2, 0}

	// Training mode: batch statistics (running-stat side effects do not alter
	// the train-mode forward output, so FD remains valid).
	checkGrads(t, build(), x, labels, true, 1e-4)

	// Eval mode with non-trivial running statistics.
	net := build()
	for _, l := range net.Trunk.Layers {
		if bn, ok := l.(*BatchNorm2D); ok {
			bn.RunMean.Data[0], bn.RunMean.Data[1] = 0.3, -0.2
			bn.RunVar.Data[0], bn.RunVar.Data[1] = 1.5, 0.7
		}
	}
	checkGrads(t, net, x, labels, false, 1e-5)
}

func TestResidualGradFD(t *testing.T) {
	r := rng.New(5)
	body := NewSequential("body",
		NewConv2D("b.c1", 2, 5, 5, 2, 3, 3, 1, 1, r),
		NewReLU(),
		NewConv2D("b.c2", 2, 5, 5, 2, 3, 3, 1, 1, r),
	)
	net := NewNetwork("res", NewSequential("trunk",
		NewConv2D("stem", 1, 5, 5, 2, 3, 3, 1, 1, r),
		NewResidual("res1", body, nil),
		NewReLU(),
		NewFlatten(),
		NewLinear("fc", 2*5*5, 3, r),
	), NewSoftmaxCrossEntropy())
	x := randInput(r, 2, 1, 5, 5)
	checkGrads(t, net, x, []int{2, 0}, false, 1e-5)
}

func TestResidualProjectionGradFD(t *testing.T) {
	r := rng.New(6)
	body := NewSequential("body",
		NewConv2D("b.c1", 2, 6, 6, 4, 3, 3, 2, 1, r),
		NewReLU(),
		NewConv2D("b.c2", 4, 3, 3, 4, 3, 3, 1, 1, r),
	)
	short := NewSequential("short",
		NewConv2D("s.c1", 2, 6, 6, 4, 1, 1, 2, 0, r),
	)
	net := NewNetwork("res", NewSequential("trunk",
		NewConv2D("stem", 1, 6, 6, 2, 3, 3, 1, 1, r),
		NewResidual("res1", body, short),
		NewReLU(),
		NewFlatten(),
		NewLinear("fc", 4*3*3, 3, r),
	), NewSoftmaxCrossEntropy())
	x := randInput(r, 2, 1, 6, 6)
	checkGrads(t, net, x, []int{1, 2}, false, 1e-5)
}

// --- second-derivative correctness ----------------------------------------

// With an L2 loss (diagonal logit Hessian), a piecewise-linear two-layer MLP
// makes the paper's recursion (Eq. 8–10) exact for every weight: fc2 weights
// each touch a single logit, and fc1 weights see a truly diagonal downstream
// Hessian (the only intermediate Hessian needed is w.r.t. fc2's input, which
// is exact when the logit Hessian is diagonal). One layer deeper the diagonal
// approximation starts dropping genuine cross terms — covered by the rank-
// correlation test below instead.
func TestHessianExactMLPWithL2(t *testing.T) {
	r := rng.New(7)
	net := NewNetwork("mlp", NewSequential("trunk",
		NewLinear("fc1", 5, 7, r), NewReLU(),
		NewLinear("fc2", 7, 3, r),
	), NewL2Loss())
	x := randInput(r, 3, 5)
	labels := []int{0, 2, 1}
	net.ZeroHess()
	net.AccumulateHessian(x, labels, tensor.NewArena())
	for _, p := range net.Params() {
		for i := range p.Data.Data {
			got := p.Hess.Data[i]
			want := fdHess(net, p, i, x, labels, 1e-4)
			if math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic hess %.8g vs FD %.8g", p.Name, i, got, want)
			}
		}
	}
}

// A convolution followed directly by the L2 loss also makes Eq. 8 exact,
// including the summation over weight-sharing positions.
func TestHessianExactConvWithL2(t *testing.T) {
	r := rng.New(8)
	net := NewNetwork("cnn", NewSequential("trunk",
		NewConv2D("c1", 1, 4, 4, 2, 3, 3, 1, 1, r),
		NewFlatten(),
	), NewL2Loss())
	x := randInput(r, 2, 1, 4, 4)
	labels := []int{3, 8}
	net.ZeroHess()
	net.AccumulateHessian(x, labels, tensor.NewArena())
	for _, p := range net.Params() {
		for i := range p.Data.Data {
			got := p.Hess.Data[i]
			want := fdHess(net, p, i, x, labels, 1e-4)
			if math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic hess %.8g vs FD %.8g", p.Name, i, got, want)
			}
		}
	}
}

// For softmax cross-entropy the output-layer weight Hessian diagonal is exact
// (each weight reaches exactly one logit), even though deeper layers are the
// paper's diagonal approximation.
func TestHessianLastLayerExactWithCE(t *testing.T) {
	r := rng.New(9)
	last := NewLinear("fc2", 6, 4, r)
	net := NewNetwork("mlp", NewSequential("trunk",
		NewLinear("fc1", 5, 6, r), NewReLU(), last,
	), NewSoftmaxCrossEntropy())
	x := randInput(r, 3, 5)
	labels := []int{0, 1, 3}
	net.ZeroHess()
	net.AccumulateHessian(x, labels, tensor.NewArena())
	for i := range last.W.Data.Data {
		got := last.W.Hess.Data[i]
		want := fdHess(net, last.W, i, x, labels, 1e-4)
		if math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
			t.Fatalf("fc2.W[%d]: analytic hess %.8g vs FD %.8g", i, got, want)
		}
	}
}

// Deeper layers under CE are approximate; the paper's claim is that the
// metric *ranks* weights well at a converged optimum (Eq. 3 assumes df/dw≈0).
// Train the toy model to convergence first, then verify a strong rank
// correlation between the analytic diagonal and true (FD) second derivatives.
func TestHessianRankCorrelationDeepCE(t *testing.T) {
	r := rng.New(10)
	fc1 := NewLinear("fc1", 6, 8, r)
	net := NewNetwork("mlp", NewSequential("trunk",
		fc1, NewReLU(), NewLinear("fc2", 8, 4, r),
	), NewSoftmaxCrossEntropy())
	x := randInput(r, 8, 6)
	labels := []int{0, 1, 3, 2, 0, 1, 2, 3}
	for step := 0; step < 400; step++ {
		net.ZeroGrad()
		net.LossGrad(x, labels, true, tensor.NewArena())
		for _, p := range net.Params() {
			p.Data.AddScaled(-0.2, p.Grad)
		}
	}
	net.ZeroHess()
	net.AccumulateHessian(x, labels, tensor.NewArena())
	var analytic, fd []float64
	for i := range fc1.W.Data.Data {
		analytic = append(analytic, fc1.W.Hess.Data[i])
		fd = append(fd, fdHess(net, fc1.W, i, x, labels, 1e-3))
	}
	if rho := stat.Spearman(analytic, fd); rho < 0.7 {
		t.Fatalf("Spearman(analytic, FD) = %.3f, want >= 0.7", rho)
	}
}

// Second derivatives must flow through residual sums and max pooling. With an
// L2 loss directly above, the residual *body* weights are exact (their only
// path to the loss is through the body; the skip adds no W-dependent path).
// The stem below the residual sees two interfering paths (skip + body) whose
// cross term the paper's branch-sum rule deliberately drops, so the stem is
// checked for the structural invariants (non-negative, non-trivial) instead.
func TestHessianResidualMaxPoolL2(t *testing.T) {
	r := rng.New(11)
	bodyConv := NewConv2D("b.c1", 2, 4, 4, 2, 3, 3, 1, 1, r)
	body := NewSequential("body", bodyConv)
	stem := NewConv2D("stem", 1, 4, 4, 2, 3, 3, 1, 1, r)
	net := NewNetwork("res", NewSequential("trunk",
		stem,
		NewResidual("res", body, nil),
		NewMaxPool2D("pool", 2, 2),
		NewFlatten(),
	), NewL2Loss())
	x := randInput(r, 2, 1, 4, 4)
	labels := []int{1, 5}
	net.ZeroHess()
	net.AccumulateHessian(x, labels, tensor.NewArena())
	for i := range bodyConv.W.Data.Data {
		got := bodyConv.W.Hess.Data[i]
		want := fdHess(net, bodyConv.W, i, x, labels, 1e-4)
		if math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
			t.Fatalf("b.c1.W[%d]: analytic hess %.8g vs FD %.8g", i, got, want)
		}
	}
	sum := 0.0
	for _, v := range stem.W.Hess.Data {
		if v < 0 {
			t.Fatalf("stem hessian has negative entry %v", v)
		}
		sum += v
	}
	if sum == 0 {
		t.Fatal("stem hessian did not accumulate through the residual block")
	}
}

// --- loss functions ---------------------------------------------------------

func TestSoftmaxCEMatchesManual(t *testing.T) {
	l := NewSoftmaxCrossEntropy()
	logits := tensor.FromSlice([]float64{1, 2, 3, 0, 0, 0}, 2, 3)
	loss := l.Forward(logits, []int{2, 0}, tensor.NewArena())
	want := (-math.Log(math.Exp(3)/(math.Exp(1)+math.Exp(2)+math.Exp(3))) - math.Log(1.0/3.0)) / 2
	if math.Abs(loss-want) > 1e-12 {
		t.Fatalf("loss = %v, want %v", loss, want)
	}
}

func TestSoftmaxCEGradRowsSumToZero(t *testing.T) {
	r := rng.New(12)
	l := NewSoftmaxCrossEntropy()
	logits := randInput(r, 4, 5)
	l.Forward(logits, []int{0, 1, 2, 3}, tensor.NewArena())
	g := l.Backward(1, tensor.NewArena())
	for bi := 0; bi < 4; bi++ {
		s := 0.0
		for j := 0; j < 5; j++ {
			s += g.At(bi, j)
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("row %d grad sum = %v", bi, s)
		}
	}
}

func TestSoftmaxCEHessIsPOneMinusP(t *testing.T) {
	r := rng.New(13)
	l := NewSoftmaxCrossEntropy()
	logits := randInput(r, 2, 4)
	l.Forward(logits, []int{0, 1}, tensor.NewArena())
	h := l.Backward(2, tensor.NewArena())
	for i, p := range l.probs.Data {
		want := p * (1 - p) / 2
		if math.Abs(h.Data[i]-want) > 1e-12 {
			t.Fatalf("hess[%d] = %v, want %v", i, h.Data[i], want)
		}
		if h.Data[i] < 0 {
			t.Fatal("CE logit Hessian diagonal must be non-negative")
		}
	}
}

func TestL2LossValueAndDerivs(t *testing.T) {
	l := NewL2Loss()
	logits := tensor.FromSlice([]float64{0.5, 0.5}, 1, 2)
	loss := l.Forward(logits, []int{0}, tensor.NewArena())
	if math.Abs(loss-0.5) > 1e-12 { // (0.5-1)^2 + 0.5^2
		t.Fatalf("loss = %v", loss)
	}
	g := l.Backward(1, tensor.NewArena())
	if math.Abs(g.Data[0]+1) > 1e-12 || math.Abs(g.Data[1]-1) > 1e-12 {
		t.Fatalf("grad = %v", g.Data)
	}
	h := l.Backward(2, tensor.NewArena())
	for _, v := range h.Data {
		if v != 2 {
			t.Fatalf("hess = %v, want all 2", h.Data)
		}
	}
}

// --- layer behaviour --------------------------------------------------------

func TestReLUForward(t *testing.T) {
	x := tensor.FromSlice([]float64{-1, 0, 2}, 1, 3)
	y := NewReLU().Forward(x, false, tensor.NewArena())
	if y.Data[0] != 0 || y.Data[1] != 0 || y.Data[2] != 2 {
		t.Fatalf("relu = %v", y.Data)
	}
}

func TestMaxPoolForwardAndRouting(t *testing.T) {
	p := NewMaxPool2D("p", 2, 2)
	x := tensor.FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y := p.Forward(x, false, tensor.NewArena())
	want := []float64{6, 8, 14, 16}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("maxpool out = %v", y.Data)
		}
	}
	g := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	gi := p.Backward(g, 1, tensor.NewArena())
	if gi.Data[5] != 1 || gi.Data[7] != 2 || gi.Data[13] != 3 || gi.Data[15] != 4 {
		t.Fatalf("maxpool routing wrong: %v", gi.Data)
	}
	s := 0.0
	for _, v := range gi.Data {
		s += v
	}
	if s != 10 {
		t.Fatal("maxpool backward must conserve gradient mass")
	}
}

// TestMaxPoolBackwardWindowWithoutMax: a window whose values are all −Inf
// or NaN has no maximum, so Forward records argmax −1 and Backward, at
// both orders, routes its derivative nowhere (it used to index the input
// derivative at −1 and panic) while the other windows route as usual.
func TestMaxPoolBackwardWindowWithoutMax(t *testing.T) {
	inf, nan := math.Inf(-1), math.NaN()
	for _, tc := range []struct {
		name   string
		window [4]float64 // the first window's values, in scan order
	}{
		{"all -Inf", [4]float64{inf, inf, inf, inf}},
		{"all NaN", [4]float64{nan, nan, nan, nan}},
		{"-Inf and NaN", [4]float64{inf, nan, nan, inf}},
	} {
		for _, order := range []int{1, 2} {
			w := tc.window
			x := tensor.FromSlice([]float64{
				w[0], w[1], 1, 2,
				w[2], w[3], 4, 3,
			}, 1, 1, 2, 4)
			p := NewMaxPool2D("p", 2, 2)
			a := tensor.NewArena()
			y := p.Forward(x, true, a)
			if !math.IsInf(y.Data[0], -1) || y.Data[1] != 4 {
				t.Fatalf("%s: forward = %v, want [-Inf 4]", tc.name, y.Data)
			}
			gi := p.Backward(tensor.FromSlice([]float64{5, 7}, 1, 1, 1, 2), order, a)
			want := []float64{0, 0, 0, 0, 0, 0, 7, 0}
			for i := range want {
				if gi.Data[i] != want[i] {
					t.Fatalf("%s order %d: input derivative = %v, want %v", tc.name, order, gi.Data, want)
				}
			}
		}
	}
}

// TestPoolRejectsMapNarrowerThanWindow: a map with fewer rows or columns
// than the window has no output position. (in-k)/stride truncates toward
// zero, so without the check a 2×2 window over one row reported one output
// row and read past the row.
func TestPoolRejectsMapNarrowerThanWindow(t *testing.T) {
	for _, l := range []Layer{NewMaxPool2D("max", 2, 2), NewAvgPool2D("avg", 2, 2)} {
		for _, in := range [][]int{{1, 2, 1, 4}, {1, 2, 4, 1}} {
			if shape, err := l.OutShape(in); err == nil {
				t.Fatalf("%s accepted %v with output %v", l.Name(), in, shape)
			}
		}
		if shape, err := l.OutShape([]int{1, 2, 2, 3}); err != nil || shape[2] != 1 || shape[3] != 1 {
			t.Fatalf("%s on [1 2 2 3] = %v, %v; want [1 2 1 1]", l.Name(), shape, err)
		}
	}
}

func TestAvgPoolSecondUsesSquaredCoeff(t *testing.T) {
	p := NewAvgPool2D("p", 2, 2)
	x := tensor.New(1, 1, 2, 2)
	p.Forward(x, false, tensor.NewArena())
	h := tensor.FromSlice([]float64{8}, 1, 1, 1, 1)
	hi := p.Backward(h, 2, tensor.NewArena())
	for _, v := range hi.Data {
		if v != 0.5 { // 8 * (1/4)^2
			t.Fatalf("avgpool hess scatter = %v, want 0.5", hi.Data)
		}
	}
}

func TestGlobalAvgPool(t *testing.T) {
	p := NewGlobalAvgPool("gap", 4)
	x := tensor.New(1, 2, 4, 4)
	for i := 0; i < 16; i++ {
		x.Data[i] = 2 // channel 0
		x.Data[16+i] = 4
	}
	y := p.Forward(x, false, tensor.NewArena())
	if y.Shape[2] != 1 || y.Shape[3] != 1 || y.Data[0] != 2 || y.Data[1] != 4 {
		t.Fatalf("gap = %+v %v", y.Shape, y.Data)
	}
}

func TestQuantActQuantizesAndClips(t *testing.T) {
	q := NewQuantAct("q", 2, 3.0) // levels = 3, step = 1
	q.Calibrate = false
	x := tensor.FromSlice([]float64{-0.4, 0.4, 1.6, 5.0}, 1, 4)
	y := q.Forward(x, false, tensor.NewArena())
	want := []float64{0, 0, 2, 3}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("quant = %v, want %v", y.Data, want)
		}
	}
	// STE: out-of-range elements block the derivative at both orders.
	g := tensor.FromSlice([]float64{1, 1, 1, 1}, 1, 4)
	gi := q.Backward(g, 1, tensor.NewArena())
	if gi.Data[0] != 0 || gi.Data[1] != 1 || gi.Data[2] != 1 || gi.Data[3] != 0 {
		t.Fatalf("STE mask = %v", gi.Data)
	}
	hi := q.Backward(g, 2, tensor.NewArena())
	if hi.Data[0] != 0 || hi.Data[3] != 0 || hi.Data[1] != 1 {
		t.Fatalf("hess STE mask = %v", hi.Data)
	}
}

func TestQuantActCalibration(t *testing.T) {
	q := NewQuantAct("q", 4, 0.1)
	x := tensor.FromSlice([]float64{0, 2.5}, 1, 2)
	q.Forward(x, true, tensor.NewArena())
	if q.Max != 2.5 {
		t.Fatalf("calibrated max = %v", q.Max)
	}
	q.Forward(x, false, tensor.NewArena()) // eval must not widen further
	q2 := tensor.FromSlice([]float64{0, 9.9}, 1, 2)
	q.Forward(q2, false, tensor.NewArena())
	if q.Max != 2.5 {
		t.Fatal("eval mode must not recalibrate")
	}
}

func TestBatchNormNormalizesTrainBatch(t *testing.T) {
	r := rng.New(14)
	bn := NewBatchNorm2D("bn", 3)
	x := randInput(r, 8, 3, 4, 4)
	y := bn.Forward(x, true, tensor.NewArena())
	for c := 0; c < 3; c++ {
		var w stat.Welford
		for bi := 0; bi < 8; bi++ {
			base := (bi*3 + c) * 16
			for i := base; i < base+16; i++ {
				w.Add(y.Data[i])
			}
		}
		if math.Abs(w.Mean()) > 1e-9 {
			t.Fatalf("channel %d mean = %v", c, w.Mean())
		}
		if math.Abs(w.Std()-1) > 0.01 {
			t.Fatalf("channel %d std = %v", c, w.Std())
		}
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	r := rng.New(15)
	bn := NewBatchNorm2D("bn", 1)
	for i := 0; i < 200; i++ {
		x := tensor.New(16, 1, 2, 2)
		for j := range x.Data {
			x.Data[j] = r.Gauss(3, 2)
		}
		bn.Forward(x, true, tensor.NewArena())
	}
	if math.Abs(bn.RunMean.Data[0]-3) > 0.2 {
		t.Fatalf("running mean = %v, want ~3", bn.RunMean.Data[0])
	}
	if math.Abs(bn.RunVar.Data[0]-4) > 0.5 {
		t.Fatalf("running var = %v, want ~4", bn.RunVar.Data[0])
	}
}

// --- network-level ----------------------------------------------------------

func TestNetworkCloneIsIndependent(t *testing.T) {
	r := rng.New(16)
	net := NewNetwork("mlp", NewSequential("trunk",
		NewLinear("fc1", 4, 8, r), NewReLU(), NewLinear("fc2", 8, 2, r),
	), NewSoftmaxCrossEntropy())
	clone := net.Clone()
	clone.Params()[0].Data.Data[0] += 100
	if net.Params()[0].Data.Data[0] == clone.Params()[0].Data.Data[0] {
		t.Fatal("clone shares parameter storage")
	}
	x := randInput(r, 2, 4)
	a := net.Forward(x, false, tensor.NewArena()).Clone()
	clone.Forward(x, false, tensor.NewArena())
	b := net.Forward(x, false, tensor.NewArena())
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("evaluating a clone perturbed the original network")
		}
	}
}

func TestMappedParamsAreConvAndLinearWeightsOnly(t *testing.T) {
	r := rng.New(17)
	net := NewNetwork("cnn", NewSequential("trunk",
		NewConv2D("c1", 1, 6, 6, 2, 3, 3, 1, 1, r),
		NewBatchNorm2D("bn", 2),
		NewReLU(),
		NewFlatten(),
		NewLinear("fc", 2*6*6, 3, r),
	), NewSoftmaxCrossEntropy())
	mapped := net.MappedParams()
	if len(mapped) != 2 {
		t.Fatalf("mapped params = %d, want 2 (conv W, fc W)", len(mapped))
	}
	for _, p := range mapped {
		if p.Name != "c1.W" && p.Name != "fc.W" {
			t.Fatalf("unexpected mapped param %s", p.Name)
		}
	}
	want := 2*1*3*3 + 3*2*6*6
	if net.NumMappedWeights() != want {
		t.Fatalf("NumMappedWeights = %d, want %d", net.NumMappedWeights(), want)
	}
}

func TestCountCorrect(t *testing.T) {
	r := rng.New(18)
	net := NewNetwork("mlp", NewSequential("trunk", NewLinear("fc", 3, 3, r)), NewSoftmaxCrossEntropy())
	// Identity-ish weights make argmax track the largest input.
	fc := net.Trunk.Layers[0].(*Linear)
	fc.W.Data.Zero()
	for i := 0; i < 3; i++ {
		fc.W.Data.Set(1, i, i)
	}
	x := tensor.FromSlice([]float64{5, 0, 0, 0, 0, 7}, 2, 3)
	if got := net.CountCorrect(x, []int{0, 2}, tensor.NewArena()); got != 2 {
		t.Fatalf("correct = %d", got)
	}
	if got := net.CountCorrect(x, []int{1, 2}, tensor.NewArena()); got != 1 {
		t.Fatalf("correct = %d", got)
	}
}

func TestHessianIsNonNegativeForCE(t *testing.T) {
	// Every term propagated by Eq. 8/10 from a non-negative seed stays
	// non-negative (squares times non-negative), a structural invariant of
	// the method worth pinning down.
	r := rng.New(19)
	net := NewNetwork("cnn", NewSequential("trunk",
		NewConv2D("c1", 1, 8, 8, 4, 3, 3, 1, 1, r),
		NewBatchNorm2D("bn", 4),
		NewReLU(),
		NewMaxPool2D("p", 2, 2),
		NewFlatten(),
		NewLinear("fc", 4*4*4, 5, r),
	), NewSoftmaxCrossEntropy())
	x := randInput(r, 4, 1, 8, 8)
	net.ZeroHess()
	net.AccumulateHessian(x, []int{0, 1, 2, 3}, tensor.NewArena())
	for _, p := range net.Params() {
		for i, v := range p.Hess.Data {
			if v < 0 {
				t.Fatalf("%s[%d] hessian diagonal %v < 0", p.Name, i, v)
			}
		}
	}
}

// TestPassesLeaveNoScratch: after every kind of Network pass, no layer and
// no loss holds a reference to the pass's arena. Layers keep their caches
// in unexported fields of tensor, float and int slice types (inShape is a
// layer-owned shape, not scratch), so the test reads every such field.
func TestPassesLeaveNoScratch(t *testing.T) {
	r := rng.New(8)
	nets := []*Network{
		NewNetwork("cnn", NewSequential("trunk",
			NewConv2D("conv", 1, 8, 8, 3, 3, 3, 1, 1, r), NewBatchNorm2D("bn", 3),
			NewReLU(), NewQuantAct("q", 4, 1), NewMaxPool2D("pool", 2, 2),
			NewResidual("res", NewSequential("body", NewConv2D("c2", 3, 4, 4, 3, 3, 3, 1, 1, r), NewReLU()), nil),
			NewAvgPool2D("avg", 2, 2), NewFlatten(),
			NewLinear("fc", 12, 4, r), NewQuantAct("q2", 4, 1), NewLinear("fc2", 4, 3, r),
		), NewSoftmaxCrossEntropy()),
		NewNetwork("mlp", NewSequential("trunk",
			NewLinear("fc", 64, 5, r), NewSigmoid(), NewLinear("fc2", 5, 3, r), NewTanh(),
		), NewL2Loss()),
	}
	for _, net := range nets {
		x := randInput(r, 2, 1, 8, 8)
		if net.Name == "mlp" {
			x = randInput(r, 2, 64)
		}
		labels := []int{0, 2}
		s := tensor.NewArena()
		for name, pass := range map[string]func(){
			"Forward":       func() { net.Forward(x, true, s) },
			"LossGrad":      func() { net.LossGrad(x, labels, true, s) },
			"LossGradCount": func() { net.LossGradCount(x, labels, false, s) },
			"AccumulateHessian": func() {
				if net.Name != "mlp" { // Sigmoid and Tanh need the order-1 pass first
					net.AccumulateHessian(x, labels, s)
				}
			},
			"AccumulateHessianFull": func() { net.AccumulateHessianFull(x, labels, s) },
			"EvalLoss":              func() { net.EvalLoss(x, labels, s) },
			"CountCorrect":          func() { net.CountCorrect(x, labels, s) },
		} {
			s.Reset()
			pass()
			holders := []any{net.Loss}
			Walk(net.Trunk, func(l Layer) { holders = append(holders, l) })
			for _, h := range holders {
				for _, field := range heldScratch(reflect.ValueOf(h).Elem()) {
					t.Errorf("%s %s: %T.%s still set after the pass", net.Name, name, h, field)
				}
			}
		}
	}
}

// heldScratch lists the unexported fields of struct v, embedded structs
// included, that may hold scratch and are set.
func heldScratch(v reflect.Value) []string {
	var held []string
	for i := 0; i < v.NumField(); i++ {
		f, ft := v.Field(i), v.Type().Field(i)
		switch {
		case ft.Anonymous && ft.Type.Kind() == reflect.Struct:
			held = append(held, heldScratch(f)...)
		case ft.IsExported() || ft.Name == "inShape":
		case ft.Type == reflect.TypeOf((*tensor.Tensor)(nil)) || ft.Type == reflect.TypeOf([]float64(nil)) || ft.Type == reflect.TypeOf([]int(nil)):
			if !f.IsNil() {
				held = append(held, ft.Name)
			}
		}
	}
	return held
}
