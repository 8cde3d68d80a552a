package nn_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"swim/internal/data"
	"swim/internal/models"
	"swim/internal/nn"
	"swim/internal/rng"
	"swim/internal/swim"
	"swim/internal/tensor"
	"swim/internal/train"
)

// digest hashes the raw IEEE-754 bits of every value the pick function
// selects from each parameter, in parameter order.
func digest(ps []*nn.Param, pick func(*nn.Param) *tensor.Tensor) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range ps {
		for _, v := range pick(p).Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// jitter perturbs every unmapped parameter (biases, batch-norm γ and β). A
// fresh network's γ = 1 and zero biases make some reassociations exact —
// (γ·s)·(γ·s) equals γ·s·γ·s when γ = 1 — and would hide them.
func jitter(net *nn.Network, r *rng.Source) {
	for _, p := range net.Params() {
		if !p.Mapped {
			for i := range p.Data.Data {
				p.Data.Data[i] += r.Gauss(0, 0.2)
			}
		}
	}
}

func grads(p *nn.Param) *tensor.Tensor    { return p.Grad }
func hessians(p *nn.Param) *tensor.Tensor { return p.Hess }
func weights(p *nn.Param) *tensor.Tensor  { return p.Data }

// TestBackwardBitsPinned pins, bit for bit, what the backward pass leaves in
// Param.Grad and Param.Hess, and the weights one QAT epoch trains. The
// finite-difference and exact-Hessian tests allow a tolerance, so a
// reassociated product or a changed accumulation order passes them; it
// fails here. Every MC result downstream (rankings, trained models, the
// benchmark digests) inherits these bits.
func TestBackwardBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are amd64's; other targets fuse multiply-adds (ROADMAP item G)")
	}
	check := func(t *testing.T, what string, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s digest = %s, want %s", what, got, want)
		}
	}

	// LeNet (conv, max-pool, quantized ReLU, flatten, FC), ResNet-18
	// (batch norm in both modes, residual sums, projection shortcuts,
	// global average pool) and a small CNN whose 7×7 average pool is the
	// smallest window where 1/(n·n) and (1/n)·(1/n) round apart: gradients
	// in training mode, then Hessian diagonals in evaluation mode on the
	// same batch.
	mnist := data.MNISTLike(16, 10, 7)
	cifar := data.CIFARLike(10, 10, 8)
	r := rng.New(6)
	cnn := nn.NewNetwork("cnn", nn.NewSequential("trunk",
		nn.NewConv2D("conv", 3, 32, 32, 4, 5, 5, 2, 0, r), // 4×14×14
		nn.NewBatchNorm2D("bn", 4),
		nn.NewReLU(),
		nn.NewAvgPool2D("pool", 7, 7), // 4×2×2
		nn.NewFlatten(),
		nn.NewLinear("fc", 4*2*2, 10, r),
	), nn.NewSoftmaxCrossEntropy())
	for _, tc := range []struct {
		name       string
		net        *nn.Network
		ds         *data.Dataset
		batch      int
		grad, hess string
	}{
		{"lenet", models.LeNet(10, 4, rng.New(1)), mnist, 8,
			"6680072cb71296c62b80cd138786ac341b46fb2b62a549161fd2b2ddeae22ac8",
			"186c592b1d1273dc43eba415f1a84712d8d446d0ef27a8fb5ae777cdc800880b"},
		{"resnet18", models.ResNet18(10, 2, 6, rng.New(2)), cifar, 4,
			"23178f229f8b1c9dc243c9698f17df401449e93bf7b69f0c005c4ac1269486e8",
			"5b248a31b339628083fc17e0b7df7407227796f81e1e5b7f099526cc73e35d41"},
		{"avgpool-cnn", cnn, cifar, 4,
			"197034e8e3855c91aaae0e35c873365abdf747f66998de81b0737adbb0e371fa",
			"afcbf0183a51c7e90250aa0e3368334700fbc5b5e477d33e8047273aa1b0ce5c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jitter(tc.net, rng.New(9))
			x, y := data.Subset(tc.ds.TrainX, tc.ds.TrainY, tc.batch)
			ps := tc.net.Params()
			tc.net.ZeroGrad()
			tc.net.LossGrad(x, y, true, tensor.NewArena())
			check(t, "Grad", digest(ps, grads), tc.grad)
			tc.net.ZeroHess()
			tc.net.AccumulateHessian(x, y, tensor.NewArena())
			check(t, "Hess", digest(ps, hessians), tc.hess)
		})
	}

	// Curved activations: the order-2 pass consumes the order-1 gradient
	// through the g″ term, and L2's constant second derivative seeds it.
	t.Run("sigmoid-tanh-mlp", func(t *testing.T) {
		r := rng.New(3)
		net := nn.NewNetwork("mlp", nn.NewSequential("trunk",
			nn.NewLinear("fc1", 6, 8, r), nn.NewSigmoid(),
			nn.NewLinear("fc2", 8, 5, r), nn.NewTanh(),
			nn.NewLinear("fc3", 5, 3, r),
		), nn.NewL2Loss())
		jitter(net, rng.New(10))
		x := tensor.New(5, 6)
		for i := range x.Data {
			x.Data[i] = r.Gauss(0, 1)
		}
		net.ZeroHess()
		net.AccumulateHessianFull(x, []int{0, 1, 2, 0, 1}, tensor.NewArena())
		check(t, "Hess", digest(net.Params(), hessians),
			"89c07a893b140396025793f8b61722b5fa79f852879c65d56d426d43d28013d9")
	})

	// One quantization-aware SGD epoch: every step's gradient feeds the
	// next step's weights, so any drift compounds into these bits.
	t.Run("lenet-qat-epoch", func(t *testing.T) {
		net := models.LeNet(10, 4, rng.New(4))
		cfg := train.DefaultConfig()
		cfg.Epochs, cfg.Batch, cfg.QATBits = 1, 8, 4
		train.SGD(net, mnist, cfg, rng.New(5))
		check(t, "weights", digest(net.Params(), weights),
			"d49731c686a83d4588043b498ceb3b74e2934741924800d43f83b35c11b79cfd")
	})
}

// TestColdBuildBitsPinned pins, bit for bit, the cold LeNet build every
// run, daemon start and benchmark workload pays for before its first trial:
// experiments.LeNetMNIST at its SWIM_FAST sizes (600 training and 300 test
// samples, three QAT epochs), built here outside the registry cache, then
// its clean accuracy and swim.Sensitivity over 512 training samples at
// batch 64. The digest hashes the clean accuracy, the weight magnitudes and
// the sensitivities, the bench harness's set-up fingerprint.
func TestColdBuildBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are amd64's; other targets fuse multiply-adds (ROADMAP item G)")
	}
	ds := data.MNISTLike(600, 300, 1)
	net := models.LeNet(10, 4, rng.New(2))
	cfg := train.DefaultConfig()
	cfg.Epochs, cfg.LRDecayEvery, cfg.QATBits = 3, 1, 4
	train.SGD(net, ds, cfg, rng.New(3))
	clean := train.Evaluate(net, ds.TestX, ds.TestY, 64)
	cx, cy := data.Subset(ds.TrainX, ds.TrainY, 512)
	hess := swim.Sensitivity(net, cx, cy, 64)

	h := sha256.New()
	var b [8]byte
	for _, vs := range [][]float64{{clean}, swim.FlatWeights(net), hess} {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	const want = "f26786fd26df1e1fc9c13b0175060c19f9704f3cc397961c2bf6f8a5dfa3daf5"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("cold build digest = %s, want %s", got, want)
	}
}
