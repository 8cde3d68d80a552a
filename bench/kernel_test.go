package main

import (
	"math"
	"testing"

	"swim/internal/data"
	"swim/internal/device"
	"swim/internal/eval"
	"swim/internal/kernel"
	"swim/internal/mapping"
	"swim/internal/models"
	"swim/internal/nn"
	"swim/internal/rng"
	"swim/internal/tensor"
)

// TestTimedKernelBitIdentical pins the timing wrapper to the backend it
// wraps: the same logits bit for bit, and the same Accuracy through a
// mapped network, on LeNet and ResNet at several batch sizes — while
// counting every call it forwards.
func TestTimedKernelBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *nn.Network
		ds   *data.Dataset
		bits int
	}{
		{"lenet", models.LeNet(10, 4, rng.New(2)), data.MNISTLike(10, 70, 1), 4},
		{"resnet", models.ResNet18(10, 4, 6, rng.New(22)), data.CIFARLike(10, 70, 21), 6},
	} {
		x, y := tc.ds.TestX, tc.ds.TestY
		for _, batch := range []int{1, 7, 64} {
			tk := &timedKernel{inner: kernel.Default()}
			bare := eval.NewEvaluatorKernel(tc.net, nil, kernel.Default())
			timed := eval.NewEvaluatorKernel(tc.net, nil, tk)
			sample := x.Size() / len(y)
			for start := 0; start < len(y); start += batch {
				end := min(start+batch, len(y))
				view := tensor.FromSlice(x.Data[start*sample:end*sample], append([]int{end - start}, x.Shape[1:]...)...)
				pb, err := bare.Plan(view.Shape)
				if err != nil {
					t.Fatal(err)
				}
				pt, err := timed.Plan(view.Shape)
				if err != nil {
					t.Fatal(err)
				}
				want, got := pb.Forward(view).Data, pt.Forward(view).Data
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s batch %d from %d: logit %d is %v through the wrapper, %v bare", tc.name, batch, start, i, got[i], want[i])
					}
				}
			}
			if tk.calls == 0 || tk.conv == 0 || tk.linear == 0 {
				t.Errorf("%s batch %d: wrapper counted calls=%d conv=%v linear=%v", tc.name, batch, tk.calls, tk.conv, tk.linear)
			}

			dev := device.Default(tc.bits, 0.5)
			mapped := func(k kernel.Backend) float64 {
				mp, err := mapping.New(tc.net, dev, nil, rng.New(5))
				if err != nil {
					t.Fatal(err)
				}
				if k != nil {
					mp.SetKernel(k)
				}
				return mp.Accuracy(x, y, batch)
			}
			wrapped := &timedKernel{inner: kernel.Default()}
			if got, want := mapped(wrapped), mapped(nil); got != want || wrapped.calls == 0 {
				t.Errorf("%s batch %d: mapped accuracy %v through the wrapper (%d calls), %v bare", tc.name, batch, got, wrapped.calls, want)
			}
		}
	}
}

// TestTimedKernelPassesIm2Col checks the wrapper reports the inner
// backend's im2col use, which layers read to size their workspace.
func TestTimedKernelPassesIm2Col(t *testing.T) {
	seen := map[bool]bool{}
	for _, spec := range kernel.Registered() {
		b, err := kernel.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		tk := &timedKernel{inner: b}
		if tk.UsesIm2Col() != b.UsesIm2Col() || tk.Name() != b.Name() || tk.Spec() != b.Spec() {
			t.Errorf("%s: wrapper reports im2col=%v name=%s spec=%s", spec, tk.UsesIm2Col(), tk.Name(), tk.Spec())
		}
		seen[b.UsesIm2Col()] = true
	}
	if !seen[true] || !seen[false] {
		t.Errorf("registered backends cover im2col use %v; want both kinds", seen)
	}
}
