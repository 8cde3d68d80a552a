package swim

import (
	"math"
	"sort"
	"testing"

	"swim/internal/rng"
)

// comparatorOrder is the ranking the selectors computed before the radix
// passes, kept as the oracle: a stable sort by primary descending, then
// secondary descending (nil: none), so equal keys keep index order.
func comparatorOrder(primary, secondary []float64) []int {
	idx := make([]int, len(primary))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		pa, pb := primary[idx[a]], primary[idx[b]]
		if pa != pb || secondary == nil {
			return pa > pb
		}
		return secondary[idx[a]] > secondary[idx[b]]
	})
	return idx
}

func checkRank(t *testing.T, name string, primary, secondary []float64) {
	t.Helper()
	got, want := rankDescending(primary, secondary), comparatorOrder(primary, secondary)
	if len(got) != len(want) {
		t.Fatalf("%s: %d ranks, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d is index %d, the comparator's is %d", name, i, got[i], want[i])
		}
	}
}

// tiedVector draws n values from a small pool so most of them tie: signed
// zeros, subnormals, infinities, extremes and a few ordinary values.
func tiedVector(r *rng.Source, n int) []float64 {
	pool := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
		math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		1, -1, 0.5, 1.0000000000000002, 0.9999999999999999, 3, -3, 1e-3, 1e3,
	}
	v := make([]float64, n)
	for i := range v {
		if r.Intn(4) == 0 {
			v[i] = r.Gauss(0, 1)
		} else {
			v[i] = pool[r.Intn(len(pool))]
		}
	}
	return v
}

// The radix ranking equals the stable comparator sort on tie-heavy random
// vectors, one key and two, at sizes that straddle the trivial cases.
func TestRankMatchesComparator(t *testing.T) {
	r := rng.New(7)
	for _, n := range []int{0, 1, 2, 3, 17, 256, 1000, 5000} {
		for rep := 0; rep < 20; rep++ {
			p, s := tiedVector(r, n), tiedVector(r, n)
			checkRank(t, "one key", p, nil)
			checkRank(t, "two keys", p, s)
			// Few distinct primaries: the second key decides most pairs.
			few := []float64{0, math.Copysign(0, -1), 1}
			for i := range p {
				p[i] = few[r.Intn(len(few))]
			}
			checkRank(t, "zero primaries", p, s)
		}
	}
}

// On a trained LeNet's own sensitivities and magnitudes (most
// sensitivities exactly 0), both selectors rank as the comparator did.
func TestSelectorsMatchComparatorOnLeNet(t *testing.T) {
	_, _, hess, weights := smallWorkload(t)
	zeros := 0
	for _, h := range hess {
		if h == 0 {
			zeros++
		}
	}
	t.Logf("%d of %d sensitivities are exactly 0", zeros, len(hess))
	checkRank(t, "swim", hess, weights)
	checkRank(t, "magnitude", weights, nil)
	swim := NewSWIMSelector(hess, weights).Order(nil)
	mag := NewMagnitudeSelector(weights).Order(nil)
	want, wantMag := comparatorOrder(hess, weights), comparatorOrder(weights, nil)
	for i := range want {
		if swim[i] != want[i] || mag[i] != wantMag[i] {
			t.Fatalf("selector rank %d differs from the comparator's", i)
		}
	}
}
