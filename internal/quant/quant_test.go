package quant

import (
	"math"
	"testing"
	"testing/quick"

	"swim/internal/rng"
	"swim/internal/tensor"
)

func randWeights(seed uint64, n int) *tensor.Tensor {
	r := rng.New(seed)
	w := tensor.New(n)
	for i := range w.Data {
		w.Data[i] = r.Gauss(0, 0.5)
	}
	return w
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{WeightBits: 4, ActBits: 4}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{WeightBits: 0, ActBits: 4}).Validate(); err == nil {
		t.Fatal("accepted 0 weight bits")
	}
	if err := (Config{WeightBits: 4, ActBits: 99}).Validate(); err == nil {
		t.Fatal("accepted 99 act bits")
	}
	if (Config{WeightBits: 4}).Levels() != 15 {
		t.Fatal("levels wrong")
	}
}

func TestRoundTripErrorBound(t *testing.T) {
	// Round-tripping through the integer grid never errs more than half a
	// step for in-range weights.
	if err := quick.Check(func(seed uint64) bool {
		w := randWeights(seed, 64)
		scale := ScaleFor(w, 6)
		n := len(w.Data)
		mags, signs, back := make([]int, n), make([]float64, n), make([]float64, n)
		QuantizeInt(mags, signs, w, scale, 6)
		Dequantize(back, mags, signs, scale)
		for i, v := range w.Data {
			if math.Abs(back[i]-v) > scale/2+1e-12 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeIntRange(t *testing.T) {
	w := tensor.FromSlice([]float64{-3, -0.1, 0, 0.1, 3}, 5)
	scale := ScaleFor(w, 4)
	mags, signs := make([]int, 5), make([]float64, 5)
	QuantizeInt(mags, signs, w, scale, 4)
	for i, q := range mags {
		if q < 0 || q > 15 {
			t.Fatalf("mag out of range: %d", q)
		}
		if w.Data[i] < 0 && signs[i] != -1 {
			t.Fatal("sign wrong")
		}
	}
	if mags[0] != 15 || mags[4] != 15 {
		t.Fatalf("extremes should hit full scale: %v", mags)
	}
	if mags[2] != 0 {
		t.Fatal("zero should quantize to 0")
	}
}

func TestScaleForZeroTensor(t *testing.T) {
	if s := ScaleFor(tensor.New(4), 4); s != 1 {
		t.Fatalf("zero tensor scale = %v, want 1", s)
	}
}

func TestFakeQuantizeIdempotent(t *testing.T) {
	w := randWeights(3, 100)
	FakeQuantize(w, 4)
	once := w.Clone()
	FakeQuantize(w, 4)
	for i := range w.Data {
		if math.Abs(w.Data[i]-once.Data[i]) > 1e-12 {
			t.Fatal("fake-quantize is not idempotent")
		}
	}
}

func TestFakeQuantizeGridSize(t *testing.T) {
	w := randWeights(4, 500)
	FakeQuantize(w, 3)
	grid := map[float64]bool{}
	for _, v := range w.Data {
		grid[math.Abs(v)] = true
	}
	if len(grid) > 8 { // 2^3 magnitudes including zero
		t.Fatalf("3-bit quantization produced %d distinct magnitudes", len(grid))
	}
}

func TestErrorShrinksWithBits(t *testing.T) {
	w := randWeights(5, 256)
	e4, e8 := Error(w, 4), Error(w, 8)
	if e8 >= e4 {
		t.Fatalf("error did not shrink with precision: e4=%v e8=%v", e4, e8)
	}
}
