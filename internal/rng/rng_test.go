package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			v := s.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(7)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %.4f, want ~0.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %.4f, want ~1", variance)
	}
}

func TestGauss(t *testing.T) {
	s := New(3)
	const n = 100000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Gauss(5, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-5) > 0.05 || math.Abs(std-2) > 0.05 {
		t.Fatalf("Gauss(5,2): mean=%.3f std=%.3f", mean, std)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(17)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[s.Intn(10)]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn(10) bucket %d count %d is not near-uniform", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		p := New(seed).Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(100)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("sibling streams collided %d times", same)
	}
}

func TestSplitN(t *testing.T) {
	kids := New(5).SplitN(8)
	if len(kids) != 8 {
		t.Fatalf("SplitN returned %d streams", len(kids))
	}
	seen := map[uint64]bool{}
	for _, k := range kids {
		v := k.Uint64()
		if seen[v] {
			t.Fatal("SplitN children produced identical first outputs")
		}
		seen[v] = true
	}
}

func TestShuffle(t *testing.T) {
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	New(21).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 28 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

// gaussWithinLoop is the rejection loop GaussWithin reproduces: one Gauss
// per draw, every draw computed.
func gaussWithinLoop(s *Source, std, bound float64, maxDraws int) (float64, int) {
	x, draws := s.Gauss(0, std), 1
	for math.Abs(x) > bound && draws < maxDraws {
		x, draws = s.Gauss(0, std), draws+1
	}
	return x, draws
}

// checkGaussWithin runs GaussWithin and the loop on copies of s and fails
// unless they return the same bits and draw count and leave the stream in
// the same place.
func checkGaussWithin(t *testing.T, s Source, std, bound float64, maxDraws int) {
	t.Helper()
	a, b := s, s
	x, n := a.GaussWithin(std, bound, maxDraws)
	wx, wn := gaussWithinLoop(&b, std, bound, maxDraws)
	if math.Float64bits(x) != math.Float64bits(wx) || n != wn || a.Uint64() != b.Uint64() {
		t.Fatalf("GaussWithin(%v, %v, %d) = (%v, %d), loop = (%v, %d) (or the streams diverged)",
			std, bound, maxDraws, x, n, wx, wn)
	}
}

func TestGaussWithinMatchesLoop(t *testing.T) {
	for _, std := range []float64{0, 1e-3, 0.06, 0.5, 1, 5, 1e4} {
		for _, bound := range []float64{0.06, 0.5} {
			for _, maxDraws := range []int{1, 2, 3, 500} {
				for seed := uint64(0); seed < 2000; seed++ {
					checkGaussWithin(t, *New(seed), std, bound, maxDraws)
				}
			}
		}
	}
}

// Bounds placed at, and a few ulps around, the two thresholds of a known
// first draw: the exact acceptance |x| = bound, and the squeeze's decision
// L = (bound/std)²·(1+δ). A bound that over-estimates T, or a skip that
// returns the capped draw without computing it, fails here.
func TestGaussWithinAtSkipBoundary(t *testing.T) {
	for seed := uint64(0); seed < 2000; seed++ {
		peek := *New(seed)
		u1 := peek.Float64()
		for u1 == 0 {
			u1 = peek.Float64()
		}
		u2 := peek.Float64()
		a := 1 - u1
		d := math.Min(math.Abs(u2-0.25), math.Abs(u2-0.75))
		c := 2 * math.Pi * d
		c -= c * c * c / 6
		lower := a * (2 + a*(1+a*(2.0/3))) * (c * c)
		n := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		for _, std := range []float64{0.06, 0.5, 1} {
			for _, b := range []float64{math.Abs(0 + std*n), std * math.Sqrt(lower/(1+squeezeSlack))} {
				for k := 0; k < 4; k++ {
					b = math.Nextafter(b, 0)
				}
				for k := 0; k < 8; k++ {
					if b > 0 {
						checkGaussWithin(t, *New(seed), std, b, 2)
						checkGaussWithin(t, *New(seed), std, b, 1)
					}
					b = math.Nextafter(b, math.Inf(1))
				}
			}
		}
	}
}

// unmix inverts Uint64's output mixing: the state whose next Uint64 is out.
func unmix(out uint64) uint64 {
	unshift := func(y uint64, k uint) uint64 {
		x := y
		for s := k; s < 64; s += k {
			x ^= y >> s
		}
		return x
	}
	inverse := func(c uint64) uint64 { // c odd: Newton's iteration mod 2^64
		x := c
		for i := 0; i < 6; i++ {
			x *= 2 - c*x
		}
		return x
	}
	z := unshift(out, 31)
	z = unshift(z*inverse(0x94d049bb133111eb), 27)
	z = unshift(z*inverse(0xbf58476d1ce4e5b9), 30)
	return z - 0x9e3779b97f4a7c15
}

// A first uniform of exactly 0 is redrawn, on the skip path as on the
// loop's.
func TestGaussWithinRedrawsZeroUniform(t *testing.T) {
	s := Source{state: unmix(0)}
	if probe := s; probe.Float64() != 0 {
		t.Fatal("unmix(0) does not yield a zero uniform")
	}
	for _, std := range []float64{0.06, 0.5, 5} {
		for _, maxDraws := range []int{1, 2, 500} {
			checkGaussWithin(t, s, std, 0.06, maxDraws)
		}
	}
}
