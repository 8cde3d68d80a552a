package serialize

import (
	"bytes"
	"testing"

	"swim/internal/data"
	"swim/internal/models"
	"swim/internal/nn"
	"swim/internal/rng"
	"swim/internal/tensor"
	"swim/internal/train"
)

func TestRoundTripPreservesOutputs(t *testing.T) {
	ds := data.MNISTLike(200, 80, 1)
	r := rng.New(2)
	net := models.LeNet(10, 4, r)
	cfg := train.DefaultConfig()
	cfg.Epochs = 1
	train.SGD(net, ds, cfg, r)
	want := train.Evaluate(net, ds.TestX, ds.TestY, 64)

	blob, err := Bytes(net)
	if err != nil {
		t.Fatal(err)
	}
	fresh := models.LeNet(10, 4, rng.New(99)) // different init
	if err := Load(bytes.NewReader(blob), fresh); err != nil {
		t.Fatal(err)
	}
	got := train.Evaluate(fresh, ds.TestX, ds.TestY, 64)
	if got != want {
		t.Fatalf("restored accuracy %.2f != original %.2f", got, want)
	}
	// Exact logits, not just accuracy.
	x, y := data.Subset(ds.TestX, ds.TestY, 8)
	_ = y
	a := net.Forward(x, false, tensor.NewArena())
	b := fresh.Forward(x, false, tensor.NewArena())
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("restored network produces different logits")
		}
	}
}

func TestRoundTripResNetWithBNAndQuant(t *testing.T) {
	ds := data.CIFARLike(100, 40, 2)
	r := rng.New(3)
	net := models.ResNet18(10, 4, 6, r)
	cfg := train.DefaultConfig()
	cfg.Epochs = 1
	train.SGD(net, ds, cfg, r) // populates BN running stats + quant ranges

	blob, err := Bytes(net)
	if err != nil {
		t.Fatal(err)
	}
	fresh := models.ResNet18(10, 4, 6, rng.New(77))
	if err := Load(bytes.NewReader(blob), fresh); err != nil {
		t.Fatal(err)
	}
	x, _ := data.Subset(ds.TestX, ds.TestY, 4)
	a := net.Forward(x, false, tensor.NewArena())
	b := fresh.Forward(x, false, tensor.NewArena())
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("restored ResNet differs (BN stats or quant ranges lost)")
		}
	}
}

func TestRestoreRejectsWrongArchitecture(t *testing.T) {
	lenet := models.LeNet(10, 4, rng.New(1))
	blob, err := Bytes(lenet)
	if err != nil {
		t.Fatal(err)
	}
	conv := models.ConvNet(10, 4, 6, rng.New(2))
	if err := Load(bytes.NewReader(blob), conv); err == nil {
		t.Fatal("loading LeNet state into ConvNet should fail")
	}
}

func TestRestoreRejectsTamperedState(t *testing.T) {
	net := models.LeNet(10, 4, rng.New(1))
	s := Capture(net)
	s.Params["conv1.W"] = s.Params["conv1.W"][:10] // wrong length
	if err := Restore(models.LeNet(10, 4, rng.New(2)), s); err == nil {
		t.Fatal("length mismatch not detected")
	}
	s2 := Capture(net)
	delete(s2.Params, "fc3.B")
	if err := Restore(models.LeNet(10, 4, rng.New(3)), s2); err == nil {
		t.Fatal("missing parameter not detected")
	}
}

// A restored network must be bit-identical to the captured one even for
// further training: the activation quantizers' calibration flags round-trip
// (a restored-frozen quantizer would diverge under in-situ training — the
// train-once, serve-many workload path depends on this).
func TestRoundTripPreservesQuantCalibration(t *testing.T) {
	r := rng.New(3)
	net := models.LeNet(10, 4, r)
	var calibrating int
	nn.Walk(net.Trunk, func(l nn.Layer) {
		if q, ok := l.(*nn.QuantAct); ok && q.Calibrate {
			calibrating++
		}
	})
	if calibrating == 0 {
		t.Fatal("fresh LeNet has no calibrating quantizers; test is vacuous")
	}
	blob, err := Bytes(net)
	if err != nil {
		t.Fatal(err)
	}
	restored := models.LeNet(10, 4, rng.New(3))
	if err := Load(bytes.NewReader(blob), restored); err != nil {
		t.Fatal(err)
	}
	var after int
	nn.Walk(restored.Trunk, func(l nn.Layer) {
		if q, ok := l.(*nn.QuantAct); ok && q.Calibrate {
			after++
		}
	})
	if after != calibrating {
		t.Fatalf("calibration flags not restored: %d before, %d after", calibrating, after)
	}
}
