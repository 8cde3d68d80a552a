package swim

import (
	"math"
	"testing"
	"testing/quick"

	"swim/internal/data"
	"swim/internal/device"
	"swim/internal/mapping"
	"swim/internal/models"
	"swim/internal/nn"
	"swim/internal/rng"
	"swim/internal/train"
)

// mustMap programs net onto dm, failing the test on a constructor error.
func mustMap(t *testing.T, net *nn.Network, dm device.Model, table []float64, r *rng.Source) *mapping.Mapped {
	t.Helper()
	mp, err := mapping.New(net, dm, table, r)
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

// smallWorkload trains a tiny LeNet so selection has real sensitivities.
func smallWorkload(t *testing.T) (*nn.Network, *data.Dataset, []float64, []float64) {
	t.Helper()
	ds := data.MNISTLike(400, 200, 1)
	r := rng.New(2)
	net := models.LeNet(10, 4, r)
	cfg := train.DefaultConfig()
	cfg.Epochs = 2
	cfg.QATBits = 4
	train.SGD(net, ds, cfg, r)
	cx, cy := data.Subset(ds.TrainX, ds.TrainY, 128)
	hess := Sensitivity(net, cx, cy, 64)
	return net, ds, hess, FlatWeights(net)
}

func TestSensitivityShapeAndSign(t *testing.T) {
	net, _, hess, weights := smallWorkload(t)
	if len(hess) != net.NumMappedWeights() || len(weights) != len(hess) {
		t.Fatalf("lengths: hess=%d weights=%d mapped=%d", len(hess), len(weights), net.NumMappedWeights())
	}
	sum := 0.0
	for _, h := range hess {
		if h < 0 {
			t.Fatalf("negative sensitivity %v (CE second derivatives are non-negative)", h)
		}
		sum += h
	}
	if sum == 0 {
		t.Fatal("all sensitivities zero")
	}
}

func TestSelectorsProducePermutations(t *testing.T) {
	_, _, hess, weights := smallWorkload(t)
	n := len(hess)
	sels := []Selector{
		NewSWIMSelector(hess, weights),
		NewMagnitudeSelector(weights),
		NewRandomSelector(n),
	}
	for _, sel := range sels {
		order := sel.Order(rng.New(5))
		seen := make([]bool, n)
		for _, idx := range order {
			if idx < 0 || idx >= n || seen[idx] {
				t.Fatalf("%s produced a non-permutation", sel.Name())
			}
			seen[idx] = true
		}
		if len(order) != n {
			t.Fatalf("%s order length %d != %d", sel.Name(), len(order), n)
		}
	}
}

func TestSWIMOrderIsDescendingInHess(t *testing.T) {
	hess := []float64{0.5, 3, 0.5, 7, 0}
	weights := []float64{9, 1, 2, 1, 5}
	order := NewSWIMSelector(hess, weights).Order(nil)
	// Expected: idx 3 (h=7), idx 1 (h=3), then h=0.5 pair tie-broken by |w|
	// (idx 0 w=9 before idx 2 w=2), then idx 4.
	want := []int{3, 1, 0, 2, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMagnitudeOrder(t *testing.T) {
	weights := []float64{0.1, 5, 3, 4}
	order := NewMagnitudeSelector(weights).Order(nil)
	want := []int{1, 3, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRandomSelectorVariesPerTrial(t *testing.T) {
	sel := NewRandomSelector(50)
	a := sel.Order(rng.New(1))
	b := sel.Order(rng.New(2))
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("random selector did not reshuffle across trials")
	}
}

func TestSelectorPermutationProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		order := NewRandomSelector(64).Order(rng.New(seed))
		seen := make([]bool, 64)
		for _, v := range order {
			if v < 0 || v >= 64 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteVerifyToNWCRespectsBudget(t *testing.T) {
	net, _, hess, weights := smallWorkload(t)
	dm := device.Default(4, 0.5)
	table := dm.CycleTable(50, rng.New(3))
	r := rng.New(4)
	mp := mustMap(t, net, dm, table, r)
	sel := NewSWIMSelector(hess, weights)
	n := WriteVerifyToNWC(mp, sel.Order(r), 0.2, r)
	if n == 0 {
		t.Fatal("no weights verified at NWC 0.2")
	}
	got := mp.NWC()
	if got < 0.15 || got > 0.3 {
		t.Fatalf("NWC = %.3f, want ~0.2", got)
	}
	if WriteVerifyToNWC(mp, sel.Order(r), 0, r) != 0 {
		t.Fatal("zero budget must verify nothing")
	}
}

func TestAlgorithm1StopsAtTarget(t *testing.T) {
	net, ds, hess, weights := smallWorkload(t)
	clean := train.Evaluate(net, ds.TestX, ds.TestY, 64)
	dm := device.Default(4, 0.5)
	table := dm.CycleTable(50, rng.New(5))
	r := rng.New(6)
	mp := mustMap(t, net, dm, table, r)
	res := Algorithm1(mp, NewSWIMSelector(hess, weights), 0.05, clean, 2.0,
		ds.TestX, ds.TestY, 64, r)
	if len(res.Steps) == 0 {
		t.Fatal("no steps recorded")
	}
	last := res.Steps[len(res.Steps)-1]
	if res.Achieved && clean-last.Accuracy > 2.0+1e-9 {
		t.Fatalf("claimed achieved but drop is %.2f", clean-last.Accuracy)
	}
	// Steps must be monotone in verified fraction.
	for i := 1; i < len(res.Steps); i++ {
		if res.Steps[i].FractionVerified < res.Steps[i-1].FractionVerified {
			t.Fatal("verified fraction not monotone")
		}
	}
}

func TestAlgorithm1GranularityValidation(t *testing.T) {
	net, ds, hess, weights := smallWorkload(t)
	dm := device.Default(4, 0.5)
	mp := mustMap(t, net, dm, dm.CycleTable(20, rng.New(1)), rng.New(2))
	defer func() {
		if recover() == nil {
			t.Fatal("granularity 0 accepted")
		}
	}()
	Algorithm1(mp, NewSWIMSelector(hess, weights), 0, 99, 1, ds.TestX, ds.TestY, 64, rng.New(3))
}

// A clone starts with zeroed accumulators whatever its source's hold, and
// gives the sensitivity and in-situ-step bits of a clone of a clean copy:
// no reader depends on what a clone used to copy into them.
func TestCloneZeroesAccumulators(t *testing.T) {
	net, ds, _, _ := smallWorkload(t)
	dirty := net.Clone()
	for i, p := range dirty.Params() {
		for j := range p.Grad.Data {
			p.Grad.Data[j] = float64(i+j) + 0.5
			p.Hess.Data[j] = math.NaN()
		}
	}
	for _, p := range dirty.Clone().Params() {
		for j := range p.Grad.Data {
			if p.Grad.Data[j] != 0 || p.Hess.Data[j] != 0 {
				t.Fatalf("%s[%d]: clone accumulators hold %v / %v, want 0", p.Name, j, p.Grad.Data[j], p.Hess.Data[j])
			}
		}
	}
	cx, cy := data.Subset(ds.TrainX, ds.TrainY, 64)
	sameBits(t, "sensitivity", Sensitivity(dirty.Clone(), cx, cy, 32), Sensitivity(net.Clone(), cx, cy, 32))

	dm := device.Default(4, 0.5)
	table := dm.CycleTable(50, rng.New(8))
	step := func(src *nn.Network) []float64 {
		r := rng.New(7)
		mp := mustMap(t, src, dm, table, r)
		InSituStep(mp, ds.TrainX, ds.TrainY, 0, DefaultInSitu(), r)
		var out []float64
		for _, p := range mp.Net.Params() {
			out = append(out, p.Data.Data...)
		}
		return out
	}
	sameBits(t, "in-situ step", step(dirty), step(net))
}

// sameBits fails unless got and want hold the same float64 bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestInSituStepBillsOneWritePerMappedWeight(t *testing.T) {
	net, ds, _, _ := smallWorkload(t)
	dm := device.Default(4, 0.5)
	r := rng.New(7)
	mp := mustMap(t, net, dm, dm.CycleTable(50, rng.New(8)), r)
	InSituStep(mp, ds.TrainX, ds.TrainY, 0, DefaultInSitu(), r)
	if int(mp.CyclesUsed) != mp.TotalWeights() {
		t.Fatalf("one in-situ iteration billed %v cycles, want %d", mp.CyclesUsed, mp.TotalWeights())
	}
}

func TestInSituImprovesNoisyNetwork(t *testing.T) {
	net, ds, _, _ := smallWorkload(t)
	dm := device.Default(4, 1.2) // heavy noise so there is room to recover
	table := dm.CycleTable(50, rng.New(9))
	r := rng.New(10)
	mp := mustMap(t, net, dm, table, r)
	before := mp.Accuracy(ds.TestX, ds.TestY, 64)
	InSituToNWC(mp, ds.TrainX, ds.TrainY, 1.0, DefaultInSitu(), r)
	after := mp.Accuracy(ds.TestX, ds.TestY, 64)
	if after < before-2 {
		t.Fatalf("in-situ training degraded accuracy: %.2f -> %.2f", before, after)
	}
	if mp.NWC() < 1.0 {
		t.Fatalf("in-situ NWC %.2f below requested budget", mp.NWC())
	}
}

func TestInSituBatchCycling(t *testing.T) {
	net, ds, _, _ := smallWorkload(t)
	dm := device.Default(4, 0.5)
	r := rng.New(11)
	mp := mustMap(t, net, dm, dm.CycleTable(50, rng.New(12)), r)
	cfg := DefaultInSitu()
	start := 0
	seen := map[int]bool{}
	for i := 0; i < 20; i++ {
		seen[start] = true
		start = InSituStep(mp, ds.TrainX, ds.TrainY, start, cfg, r)
	}
	if !seen[0] || len(seen) < 2 {
		t.Fatalf("batch cursor did not cycle: %v", seen)
	}
}

func TestSWIMBeatsRandomAtLowNWC(t *testing.T) {
	// The paper's central claim, pinned as a regression test at small scale:
	// at a 10% write budget SWIM should preserve clearly more accuracy than
	// random selection under heavy device noise.
	net, ds, hess, weights := smallWorkload(t)
	dm := device.Default(4, 1.2)
	table := dm.CycleTable(50, rng.New(13))
	mean := func(sel Selector, seed uint64) float64 {
		base := rng.New(seed)
		total := 0.0
		const trials = 6
		for i := 0; i < trials; i++ {
			r := base.Split()
			mp := mustMap(t, net, dm, table, r)
			WriteVerifyToNWC(mp, sel.Order(r), 0.1, r)
			total += mp.Accuracy(ds.TestX, ds.TestY, 64)
		}
		return total / trials
	}
	sw := mean(NewSWIMSelector(hess, weights), 100)
	rd := mean(NewRandomSelector(net.NumMappedWeights()), 100)
	if sw <= rd {
		t.Fatalf("SWIM (%.2f) did not beat random (%.2f) at NWC=0.1", sw, rd)
	}
}

func TestSensitivityConcentration(t *testing.T) {
	// SWIM works because sensitivity is heavy-tailed: the top 10% of weights
	// should hold a disproportionate share (>30%) of total sensitivity.
	_, _, hess, weights := smallWorkload(t)
	order := NewSWIMSelector(hess, weights).Order(nil)
	total := 0.0
	for _, h := range hess {
		total += h
	}
	top := 0.0
	k := len(order) / 10
	for _, idx := range order[:k] {
		top += hess[idx]
	}
	if frac := top / total; frac < 0.3 {
		t.Fatalf("top-10%% sensitivity share = %.2f, expected heavy tail > 0.3", frac)
	}
}
