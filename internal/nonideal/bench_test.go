package nonideal

import (
	"testing"

	"swim/internal/rng"
)

var sink float64

// BenchmarkDriftApply measures one device's drifted read-out one day after
// programming, with drift's default coefficients: unbound, where every read
// takes log(t/t0), and bound to that read time by At, as mapping and
// crossbar read.
func BenchmarkDriftApply(b *testing.B) {
	inst := Drift{Nu: 0.02, NuStd: 0.005, T0: 1}.NewTrial(testModel(), rng.New(1))
	for _, c := range []struct {
		name string
		in   Instance
	}{{"unbound", inst}, {"bound", At(inst, 86400)}} {
		b.Run(c.name, func(b *testing.B) {
			x := 0.0
			for i := 0; i < b.N; i++ {
				x += c.in.Apply(i, 7.5, 86400)
			}
			sink = x
		})
	}
}
