// Package obs is the zero-dependency observability core of the swim stack:
// atomic counters, gauges and fixed-bucket latency histograms behind a
// Registry with Prometheus-text exposition, plus a lightweight
// Span/Stage timing API whose no-op default costs one nil check and zero
// allocations on uninstrumented paths.
//
// Design constraints, in order:
//
//   - Observe-only. Nothing in this package may influence the computation it
//     watches: no locks on hot paths, no RNG, no scheduling effects. The
//     engine's bit-identical determinism contract (package mc) must hold with
//     instrumentation on or off, which is why every instrument is a plain
//     atomic update.
//
//   - Zero allocations once created. Counter.Inc, Gauge.Set,
//     Histogram.Observe, HistogramVec.With and Span.End allocate nothing in
//     steady state, so the instrumented evaluation hot path stays under the
//     repo's 0 allocs/op benchmark gate (BenchmarkEvalPlan*).
//
//   - Zero dependencies. Standard library only — the package must be
//     importable from the innermost layers (mc, eval) without dragging a
//     metrics ecosystem into the build.
//
// The serving daemon (internal/serve) owns the canonical Registry and
// exposes it on GET /v1/metrics in Prometheus text, next to the flat JSON
// snapshot it builds itself, by content negotiation; see
// docs/ARCHITECTURE.md, "Observability tier".
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter. Negative deltas are a programming error but are
// not rejected — counters are observe-only and must never panic a hot path.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic value that may go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// DefaultLatencyBuckets returns the fixed upper bounds (seconds) used for
// latency histograms when the caller does not supply its own: roughly
// exponential from 500µs to 60s, sized for everything from a single
// compiled-plan batch execution to a multi-second shard round trip.
func DefaultLatencyBuckets() []float64 {
	return []float64{
		0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
	}
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counts, an
// atomic sum and a running count. Observe is lock-free and allocation-free;
// Quantile interpolates a running quantile from the bucket counts, which is
// what the coordinator's shard-size autotuner consumes.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; the +Inf bucket is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, updated via CAS
}

// NewHistogram builds a histogram over the given sorted upper bounds
// (nil/empty selects DefaultLatencyBuckets). An implicit +Inf bucket catches
// overflow observations.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets()
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. Allocation-free and safe for concurrent use.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns how many values have been observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile returns the running q-quantile (0 ≤ q ≤ 1) estimated by linear
// interpolation within the bucket containing the target rank — the usual
// Prometheus histogram_quantile estimate, computed locally. Observations in
// the +Inf bucket clamp to the largest finite bound. Returns 0 when nothing
// has been observed.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.buckets {
		n := float64(h.buckets[i].Load())
		if cum+n < rank || n == 0 {
			cum += n
			continue
		}
		if i >= len(h.bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		return lo + (hi-lo)*((rank-cum)/n)
	}
	return h.bounds[len(h.bounds)-1]
}

// snapshotBuckets returns a point-in-time copy of the cumulative bucket
// counts (len(bounds)+1 entries; the last is the +Inf bucket's), plus the
// matching count and sum.
func (h *Histogram) snapshotBuckets() (counts []int64, count int64, sum float64) {
	counts = make([]int64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return counts, h.count.Load(), h.Sum()
}

// Stage names one instrumented code region backed by a Histogram. The zero
// value and the nil *Stage are inert: Start then costs a single nil check
// and Span.End does nothing, so uninstrumented call sites pay nothing.
type Stage struct {
	// H receives one observation (seconds) per completed Span.
	H *Histogram
}

// Start opens a timing span for the stage. Safe on a nil or zero Stage.
func (s *Stage) Start() Span {
	if s == nil || s.H == nil {
		return Span{}
	}
	return Span{h: s.H, start: time.Now()}
}

// Span is one in-flight timing measurement created by Stage.Start. The zero
// Span is inert. Span is a value type: it lives on the caller's stack and
// End performs no allocations.
type Span struct {
	h     *Histogram
	start time.Time
}

// End closes the span, recording the elapsed wall-clock seconds into the
// stage's histogram. Safe on the zero Span.
func (sp Span) End() {
	if sp.h == nil {
		return
	}
	sp.h.Observe(time.Since(sp.start).Seconds())
}
