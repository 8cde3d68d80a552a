package rng

import "testing"

var sink float64

// BenchmarkNorm measures one standard normal draw: two uniforms, a Log, a
// Sqrt and a Cos.
func BenchmarkNorm(b *testing.B) {
	s := New(1)
	x := 0.0
	for i := 0; i < b.N; i++ {
		x += s.Norm()
	}
	sink = x
}

// BenchmarkGaussWithin measures one write-verify fine phase at the default
// device's tolerance 0.06 and σ 0.5, where about 90% of the draws are
// rejected: about 10.5 draws per op. Its ratio to BenchmarkNorm is what
// scripts/bench_device.sh gates — about 10.5 if every draw were computed.
func BenchmarkGaussWithin(b *testing.B) {
	s := New(1)
	x := 0.0
	for i := 0; i < b.N; i++ {
		v, _ := s.GaussWithin(0.5, 0.06, 500)
		x += v
	}
	sink = x
}
