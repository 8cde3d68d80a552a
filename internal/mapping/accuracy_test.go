package mapping_test

import (
	"fmt"
	"testing"

	"swim/internal/data"
	"swim/internal/device"
	"swim/internal/eval"
	"swim/internal/mapping"
	"swim/internal/models"
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
