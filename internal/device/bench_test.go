package device

import (
	"fmt"
	"testing"

	"swim/internal/rng"
)

var sink float64

// BenchmarkWriteVerifyWeight measures write-verifying one 4-bit weight
// (magnitudes cycling over 0–15). At σ 0.1 the fine phase accepts about 45%
// of its draws; at σ 0.5 it rejects about 90%, which is where the squeeze in
// rng.GaussWithin shows.
func BenchmarkWriteVerifyWeight(b *testing.B) {
	for _, sigma := range []float64{0.1, 0.5} {
		b.Run(fmt.Sprintf("sigma=%g", sigma), func(b *testing.B) {
			m := Default(4, sigma)
			r := rng.New(1)
			x := 0.0
			for i := 0; i < b.N; i++ {
				res, _ := m.WriteVerify(i&15, r)
				x += res
			}
			sink = x
		})
	}
}

// BenchmarkProgramNoVerify measures the unverified write of one 8-bit
// weight: two devices, one Gauss each, with the per-device errors kept as
// the mapping layer keeps them.
func BenchmarkProgramNoVerify(b *testing.B) {
	m := Default(8, 0.5)
	r := rng.New(1)
	perDev := make([]float64, m.NumDevices())
	x := 0.0
	for i := 0; i < b.N; i++ {
		x += m.ProgramNoVerifyDevices(r, perDev)
	}
	sink = x
}
