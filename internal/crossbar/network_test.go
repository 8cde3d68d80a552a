package crossbar

import (
	"testing"

	"swim/internal/data"
	"swim/internal/device"
	"swim/internal/eval"
	"swim/internal/models"
	"swim/internal/rng"
	"swim/internal/tensor"
	"swim/internal/train"
)

func TestBuildAnalogLeNetMatchesDigitalAtLowNoise(t *testing.T) {
	ds := data.MNISTLike(400, 150, 1)
	r := rng.New(2)
	net := models.LeNet(10, 4, r)
	cfg := train.DefaultConfig()
	cfg.Epochs = 2
	cfg.QATBits = 4
	train.SGD(net, ds, cfg, r)
	digital := train.Evaluate(net, ds.TestX, ds.TestY, 64)

	dev := device.Default(4, 0.02) // near-ideal devices
	fab := DefaultConfig(dev)
	fab.DACBits, fab.ADCBits = 10, 12
	analog, tiles, err := BuildAnalog(net, fab, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if tiles <= 0 {
		t.Fatal("no tiles allocated")
	}
	aAcc := train.Evaluate(analog, ds.TestX, ds.TestY, 16)
	if digital-aAcc > 3 {
		t.Fatalf("analog twin %.2f%% far below digital %.2f%% at near-zero noise", aAcc, digital)
	}
}

func TestBuildAnalogNoiseHurts(t *testing.T) {
	ds := data.MNISTLike(400, 120, 1)
	r := rng.New(2)
	net := models.LeNet(10, 4, r)
	cfg := train.DefaultConfig()
	cfg.Epochs = 2
	cfg.QATBits = 4
	train.SGD(net, ds, cfg, r)

	acc := func(sigma float64) float64 {
		dev := device.Default(4, sigma)
		analog, _, err := BuildAnalog(net, DefaultConfig(dev), rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		return train.Evaluate(analog, ds.TestX, ds.TestY, 16)
	}
	if lo, hi := acc(2.5), acc(0.05); lo >= hi {
		t.Fatalf("heavy device noise should hurt analog accuracy: %.2f vs %.2f", lo, hi)
	}
}

func TestAnalogLayersRefuseTraining(t *testing.T) {
	dev := device.Default(4, 0.1)
	r := rng.New(5)
	net := models.LeNet(10, 4, r)
	analog, _, err := BuildAnalog(net, DefaultConfig(dev), r)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("backward through analog layer should panic")
		}
	}()
	x := data.MNISTLike(4, 4, 9).TrainX
	analog.LossGrad(x, []int{0, 1, 2, 3}, false, tensor.NewArena())
}

func TestBuildAnalogSharesNoState(t *testing.T) {
	dev := device.Default(4, 0.1)
	r := rng.New(6)
	net := models.LeNet(10, 4, r)
	before := net.MappedParams()[0].Data.Clone()
	if _, _, err := BuildAnalog(net, DefaultConfig(dev), r); err != nil {
		t.Fatal(err)
	}
	after := net.MappedParams()[0].Data
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("building the analog twin mutated the source network")
		}
	}
}

// TestAnalogPlanMatchesLegacyForward pins compiled-plan evaluation of an
// analog network bit-for-bit against the legacy per-layer Forward: the
// analog layers implement the same nn.Layer contract as the digital ones,
// so crossbar inference reuses the scratch arena too.
func TestAnalogPlanMatchesLegacyForward(t *testing.T) {
	dev := device.Default(4, 0.1)
	r := rng.New(8)
	net := models.LeNet(10, 4, r)
	analog, _, err := BuildAnalog(net, DefaultConfig(dev), r)
	if err != nil {
		t.Fatal(err)
	}
	full := data.MNISTLike(20, 20, 12).TrainX
	x, _ := data.Subset(full, make([]int, full.Shape[0]), 7) // odd batch

	plan, err := eval.Compile(analog, x.Shape, nil)
	if err != nil {
		t.Fatalf("Compile(analog): %v", err)
	}
	want := analog.Forward(x, false, tensor.NewArena())
	got := plan.Forward(x)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("analog logit [%d] = %v, legacy %v", i, got.Data[i], want.Data[i])
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { plan.Forward(x) }); allocs != 0 {
		t.Fatalf("analog Plan.Forward allocates %v times per call, want 0", allocs)
	}
}
