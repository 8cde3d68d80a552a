// Package rng provides a deterministic, splittable pseudo-random number
// source used by every stochastic component in this repository (device
// variation sampling, dataset synthesis, Monte-Carlo trials, weight
// initialization).
//
// All experiment randomness flows from explicit seeds so that every table and
// figure regenerates bit-identically. The generator is SplitMix64 followed by
// a xorshift* scramble: tiny, fast, and good enough statistical quality for
// simulation (it passes the equidistribution sanity tests in rng_test.go).
// math/rand is deliberately not used so that splitting (deriving independent
// child streams for parallel trials) is explicit and stable across Go
// versions.
//
// Speed-ups never change a stream. GaussWithin, the write-verify fine
// phase's rejection loop, skips the transcendentals of a draw a cheap bound
// proves rejected, but consumes its uniforms and returns the bits of the
// plain loop; a shortcut that cannot promise both does not belong here.
package rng

import "math"

// Source is a deterministic 64-bit PRNG stream. The zero value is a valid
// stream seeded with 0; prefer New.
type Source struct {
	state uint64
}

// New returns a stream seeded from seed. Distinct seeds give streams that are
// independent for simulation purposes.
func New(seed uint64) *Source {
	s := &Source{state: seed}
	// Warm up so that small adjacent seeds decorrelate immediately.
	s.Uint64()
	s.Uint64()
	return s
}

// NewLocal returns a stream seeded from seed as a value rather than a
// pointer, for callers that mint many short-lived streams on a hot path
// (e.g. per-device nonideality draws keyed by device index): a local value
// whose address never escapes stays on the stack, so no allocation occurs.
// The warm-up matches New, so NewLocal(s) and *New(s) are the same stream.
func NewLocal(seed uint64) Source {
	s := Source{state: seed}
	s.Uint64()
	s.Uint64()
	return s
}

// Split derives an independent child stream. The parent advances, so
// successive Split calls yield distinct children.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0x9e3779b97f4a7c15)
}

// SplitN derives n independent child streams.
func (s *Source) SplitN(n int) []*Source {
	out := make([]*Source, n)
	for i := range out {
		out[i] = s.Split()
	}
	return out
}

// Uint64 returns the next raw 64-bit value (SplitMix64 step).
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Modulo bias is below 2^-40 for every n used in this repo; acceptable
	// for simulation.
	return int(s.Uint64() % uint64(n))
}

// Norm returns a standard normal sample (Box–Muller, polar-free form using
// both uniforms directly; adequate tail behaviour for simulation).
func (s *Source) Norm() float64 {
	// Guard against log(0).
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Gauss returns a normal sample with the given mean and standard deviation.
func (s *Source) Gauss(mean, std float64) float64 {
	return mean + std*s.Norm()
}

// squeezeSlack is δ, the relative margin GaussWithin's squeeze leaves
// between its lower bound and the acceptance threshold (see GaussWithin).
const squeezeSlack = 1e-6

// squeezeMinRatio is the smallest bound/std at which GaussWithin's squeeze
// runs: it caps Cos's relative error near its zeros (see GaussWithin).
const squeezeMinRatio = 1e-4

// GaussWithin draws Gauss(0, std) until a draw x has |x| ≤ bound, at most
// maxDraws times (a maxDraws below 1 counts as 1), and returns the last
// draw and the number of draws made. It consumes the stream and returns
// the bits of exactly this loop:
//
//	x, draws := s.Gauss(0, std), 1
//	for math.Abs(x) > bound && draws < maxDraws {
//		x, draws = s.Gauss(0, std), draws+1
//	}
//
// — the rejection loop of a write-verify fine phase, where most draws miss
// a tight tolerance. A draw rejected by a cheap lower bound skips Norm's
// Log, Sqrt and Cos (the squeeze step of acceptance–rejection sampling,
// Marsaglia 1977): it still consumes its two uniforms, including the
// u1 == 0 redraw, and is counted. The last allowed draw is always computed,
// because its bits are returned when the cap is hit.
//
// The bound. Norm returns sqrt(−2 ln u1)·cos(2πu2), so a draw is rejected
// when T = −2 ln u1 · cos²(2πu2) > r², r = bound/std. With a = 1 − u1 and
// x = 2π times the distance from u2 to the nearer of ¼ and ¾ (both exact in
// floating point), −2 ln u1 = 2a + a² + ⅔a³ + … ≥ 2a + a² + ⅔a³ and
// |cos 2πu2| = sin x ≥ x − x³/6 on [0, π/2], so their product L ≤ T.
//
// The error argument. A draw is skipped only when the computed L exceeds
// the computed r²·(1+δ), δ = 1e-6. Evaluating L rounds it up by at most
// about 25 ulp and r²·(1+δ) down by at most 5, so T > r²·(1+δ)·(1−31u),
// u = 2⁻⁵³. Computing x = std·sqrt(−2 ln u1)·cos(2πu2) loses a relative
// 21u or so to Log, Sqrt and the products, plus Cos's absolute error E of
// a few 1e-15 (most of it the rounding of the argument 2π·u2) divided by
// |cos 2πu2|. On a skipped draw |cos 2πu2| > r/sqrt(−2 ln u1) ≥ r/8.6
// (u1 ≥ 2⁻⁵³), and r ≥ 1e-4 (the squeeze is off below), so that term is
// below 8.6·E/r ≈ 4e-10. The computed |x| is then at least
// bound·sqrt(1+δ)·(1 − 4e-10 − 1e-14) > bound: the exact loop would have
// rejected the draw too. δ is three orders of magnitude above every term it
// covers, so the bound decides 99.7% of the rejections at std 0.5, bound
// 0.06. std = 0 never skips (r is infinite) and a NaN or negative ratio
// turns the squeeze off.
func (s *Source) GaussWithin(std, bound float64, maxDraws int) (x float64, draws int) {
	r := bound / std
	squeeze := r >= squeezeMinRatio
	lim := r * r * (1 + squeezeSlack)
	for draws = 1; ; draws++ {
		u1 := s.Float64()
		for u1 == 0 {
			u1 = s.Float64()
		}
		u2 := s.Float64()
		if squeeze && draws < maxDraws {
			a := 1 - u1
			d := math.Abs(u2 - 0.25)
			if e := math.Abs(u2 - 0.75); e < d {
				d = e
			}
			c := 2 * math.Pi * d
			c -= c * c * c * (1.0 / 6)
			if a*(2+a*(1+a*(2.0/3)))*(c*c) > lim {
				continue
			}
		}
		x = 0 + std*(math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2))
		if math.Abs(x) > bound && draws < maxDraws {
			continue
		}
		return x, draws
	}
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher–Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes indices [0, n) via the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
