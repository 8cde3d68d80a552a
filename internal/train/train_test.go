package train

import (
	"fmt"
	"math"
	"testing"

	"swim/internal/data"
	"swim/internal/eval"
	"swim/internal/models"
	"swim/internal/nn"
	"swim/internal/quant"
	"swim/internal/rng"
	"swim/internal/tensor"
)

func tinyMLP(seed uint64) *nn.Network {
	r := rng.New(seed)
	return nn.NewNetwork("mlp", nn.NewSequential("trunk",
		nn.NewFlatten(),
		nn.NewLinear("fc1", 28*28, 32, r),
		nn.NewReLU(),
		nn.NewLinear("fc2", 32, 10, r),
	), nn.NewSoftmaxCrossEntropy())
}

func TestSGDReducesLoss(t *testing.T) {
	ds := data.MNISTLike(300, 100, 1)
	net := tinyMLP(2)
	cfg := DefaultConfig()
	cfg.Epochs = 3
	stats := SGD(net, ds, cfg, rng.New(3))
	if len(stats) != 3 {
		t.Fatalf("epochs recorded = %d", len(stats))
	}
	if stats[2].Loss >= stats[0].Loss {
		t.Fatalf("loss did not decrease: %v -> %v", stats[0].Loss, stats[2].Loss)
	}
	if stats[2].TrainAcc <= stats[0].TrainAcc-5 {
		t.Fatalf("train accuracy collapsed: %v -> %v", stats[0].TrainAcc, stats[2].TrainAcc)
	}
}

func TestSGDDeterministic(t *testing.T) {
	ds := data.MNISTLike(200, 50, 1)
	a, b := tinyMLP(2), tinyMLP(2)
	cfg := DefaultConfig()
	cfg.Epochs = 2
	SGD(a, ds, cfg, rng.New(5))
	SGD(b, ds, cfg, rng.New(5))
	pa, pb := a.Params()[0].Data, b.Params()[0].Data
	for i := range pa.Data {
		if pa.Data[i] != pb.Data[i] {
			t.Fatal("same seed produced different trained weights")
		}
	}
}

func TestLRDecay(t *testing.T) {
	ds := data.MNISTLike(100, 50, 1)
	net := tinyMLP(2)
	cfg := DefaultConfig()
	cfg.Epochs = 4
	cfg.LRDecayEvery = 2
	cfg.LRDecayBy = 0.1
	stats := SGD(net, ds, cfg, rng.New(5))
	if stats[3].LR >= stats[0].LR {
		t.Fatalf("lr did not decay: %v -> %v", stats[0].LR, stats[3].LR)
	}
	if math.Abs(stats[3].LR-cfg.LR*0.1) > 1e-12 {
		t.Fatalf("lr after one decay = %v, want %v", stats[3].LR, cfg.LR*0.1)
	}
}

func TestQATLeavesWeightsOnGrid(t *testing.T) {
	ds := data.MNISTLike(200, 50, 1)
	r := rng.New(2)
	net := models.LeNet(10, 4, r)
	cfg := DefaultConfig()
	cfg.Epochs = 1
	cfg.QATBits = 4
	SGD(net, ds, cfg, r)
	for _, p := range net.MappedParams() {
		before := p.Data.Clone()
		quant.FakeQuantize(p.Data, 4)
		for i := range before.Data {
			if math.Abs(before.Data[i]-p.Data.Data[i]) > 1e-12 {
				t.Fatalf("%s not on the 4-bit grid after QAT", p.Name)
			}
		}
	}
}

func TestEvaluateBounds(t *testing.T) {
	ds := data.MNISTLike(100, 60, 1)
	net := tinyMLP(2)
	acc := Evaluate(net, ds.TestX, ds.TestY, 32)
	if acc < 0 || acc > 100 {
		t.Fatalf("accuracy out of range: %v", acc)
	}
}

// TestEvaluatePanicsOnMalformedSet pins that Evaluate measures nothing on a
// malformed evaluation set: it panics with the evaluator's own error. (A
// per-layer fallback once read 64 samples against 100 labels as 7%.)
func TestEvaluatePanicsOnMalformedSet(t *testing.T) {
	ds := data.MNISTLike(100, 10, 1)
	sample := ds.TrainX.Size() / len(ds.TrainY)
	first64 := tensor.FromSlice(ds.TrainX.Data[:64*sample], append([]int{64}, ds.TrainX.Shape[1:]...)...)
	cases := []struct {
		name  string
		x     *tensor.Tensor
		y     []int
		batch int
	}{
		{"empty", tensor.FromSlice(nil, 0, 1, 28, 28), nil, 8},
		{"more-labels", first64, ds.TrainY, 32},
		{"fewer-labels", ds.TrainX, ds.TrainY[:64], 32},
		{"batch-0", ds.TrainX, ds.TrainY, 0},
	}
	net := models.LeNet(10, 4, rng.New(1))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, want := eval.NewEvaluator(net, nil).Accuracy(tc.x, tc.y, tc.batch)
			if want == nil {
				t.Fatal("the evaluator accepted the set")
			}
			var got error
			func() {
				defer func() {
					if p := recover(); p != nil {
						if got, _ = p.(error); got == nil {
							got = fmt.Errorf("panic with a non-error value: %v", p)
						}
					}
				}()
				Evaluate(net, tc.x, tc.y, tc.batch)
			}()
			if got == nil || got.Error() != want.Error() {
				t.Fatalf("Evaluate panicked with %v, want the evaluator's error %q", got, want)
			}
		})
	}
}

func TestTrainingImprovesTestAccuracy(t *testing.T) {
	ds := data.MNISTLike(600, 200, 1)
	net := tinyMLP(2)
	before := Evaluate(net, ds.TestX, ds.TestY, 64)
	cfg := DefaultConfig()
	cfg.Epochs = 4
	SGD(net, ds, cfg, rng.New(3))
	after := Evaluate(net, ds.TestX, ds.TestY, 64)
	if after <= before+10 {
		t.Fatalf("test accuracy barely moved: %.1f -> %.1f", before, after)
	}
}
