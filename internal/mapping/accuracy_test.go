package mapping_test

import (
	"fmt"
	"testing"

	"swim/internal/calib"
	"swim/internal/data"
	"swim/internal/device"
	"swim/internal/eval"
	"swim/internal/mapping"
	"swim/internal/models"
	"swim/internal/nonideal"
	"swim/internal/rng"
	"swim/internal/tensor"
)

// panicErr runs f and returns the error it panicked with (nil if it
// returned normally).
func panicErr(f func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if err, _ = p.(error); err == nil {
				err = fmt.Errorf("panic with a non-error value: %v", p)
			}
		}
	}()
	f()
	return nil
}

// TestAccuracyPanicsOnMalformedSet pins that Accuracy measures nothing on a
// malformed evaluation set: it panics with the evaluator's own error. (A
// per-layer fallback once read 64 samples against 100 labels as 7%.)
func TestAccuracyPanicsOnMalformedSet(t *testing.T) {
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
	dm := device.Default(4, 0.5)
	mp, err := mapping.New(models.LeNet(10, 4, rng.New(1)), dm, dm.CycleTable(50, rng.New(2)), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, want := eval.NewEvaluator(mp.Net, nil).Accuracy(tc.x, tc.y, tc.batch)
			if want == nil {
				t.Fatal("the evaluator accepted the set")
			}
			got := panicErr(func() { mp.Accuracy(tc.x, tc.y, tc.batch) })
			if got == nil || got.Error() != want.Error() {
				t.Fatalf("Accuracy panicked with %v, want the evaluator's error %q", got, want)
			}
		})
	}
}

// TestAccuracyMatchesFreshPass pins re-measurement against a fresh full
// pass under drift plus gainoffset calibration: after every programming
// operation, in the first, a middle and the last mapped layer, Accuracy —
// which resumes at the first layer whose state changed — must equal a new
// evaluator's full pass over the same network.
func TestAccuracyMatchesFreshPass(t *testing.T) {
	ds := data.MNISTLike(40, 20, 7)
	x, y := ds.TestX, ds.TestY
	dm := device.Default(4, 0.5)
	r := rng.New(3)
	mp, err := mapping.New(models.LeNet(10, 4, rng.New(1)), dm, dm.CycleTable(50, rng.New(2)), r)
	if err != nil {
		t.Fatal(err)
	}
	drift, err := nonideal.ParseStack("drift:nu=0.1")
	if err != nil {
		t.Fatal(err)
	}
	mp.SetNonideal(nonideal.NewTrials(drift, dm, r.Split()), 86400)
	cm, err := calib.Parse("gainoffset")
	if err != nil {
		t.Fatal(err)
	}
	mp.SetCalibration(cm.NewTrial(r.Split()))

	check := func(what string) {
		t.Helper()
		got := mp.Accuracy(x, y, 8)
		want, err := eval.NewEvaluator(mp.Net, nil).Accuracy(x, y, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("after %s: Accuracy %v, fresh full pass %v", what, got, want)
		}
	}
	check("programming")
	n := mp.TotalWeights()
	for k, i := range []int{0, 2600, n - 1, n - 84, 151, n - 2} {
		mp.WriteVerifyAt(i, r)
		check(fmt.Sprintf("WriteVerifyAt(%d)", i))
		mp.NoisyWriteAt(i, 0.05*float64(k-2), r)
		check(fmt.Sprintf("NoisyWriteAt(%d)", i))
		mp.IncrementAt(i, -0.02, r)
		check(fmt.Sprintf("IncrementAt(%d)", i))
		check("no change")
	}
}

// TestAccuracyRebindsOnNewSet: a different evaluation set — another
// backing array for x or y — or batch size is measured afresh, never
// answered from what the previous set left behind.
func TestAccuracyRebindsOnNewSet(t *testing.T) {
	ds := data.MNISTLike(40, 40, 9)
	dm := device.Default(4, 0.5)
	mp, err := mapping.New(models.LeNet(10, 4, rng.New(1)), dm, dm.CycleTable(50, rng.New(2)), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// predicted returns the network's own top-1 labels for x, in a new
	// array: measured against them, accuracy is 100%.
	predicted := func(x *tensor.Tensor) []int {
		logits := mp.Net.Forward(x, false, tensor.NewArena())
		classes := logits.Shape[1]
		labels := make([]int, logits.Shape[0])
		for s := range labels {
			row := logits.Data[s*classes : (s+1)*classes]
			for c, v := range row {
				if v > row[labels[s]] {
					labels[s] = c
				}
			}
		}
		return labels
	}
	sample := ds.TestX.Size() / len(ds.TestY)
	shape := append([]int{20}, ds.TestX.Shape[1:]...)
	x := tensor.FromSlice(append([]float64(nil), ds.TestX.Data[:20*sample]...), shape...)
	x2 := tensor.FromSlice(append([]float64(nil), ds.TestX.Data[20*sample:]...), shape...)
	y := ds.TestY[:20]
	if acc := mp.Accuracy(x, y, 8); acc == 100 {
		t.Fatal("the network already classifies every sample as labeled — the test is vacuous")
	}
	if acc := mp.Accuracy(x, predicted(x), 8); acc != 100 {
		t.Fatalf("new label array: accuracy %v, want 100", acc)
	}
	y2 := predicted(x2)
	if acc := mp.Accuracy(x2, y2, 8); acc != 100 {
		t.Fatalf("new sample array: accuracy %v, want 100", acc)
	}
	want, err := eval.NewEvaluator(mp.Net, nil).Accuracy(x, y, 5)
	if err != nil {
		t.Fatal(err)
	}
	if acc := mp.Accuracy(x, y, 5); acc != want {
		t.Fatalf("back to the first set in batches of 5: accuracy %v, fresh pass %v", acc, want)
	}
}
