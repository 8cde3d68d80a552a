package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Metric kinds tracked by the registry (internal; exposition branches on
// them).
const (
	kindCounter = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
	kindHistogramVec
)

// family is one registered metric name: exactly one instrument (or one
// labeled vector of instruments) per name.
type family struct {
	name, help string
	kind       int

	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
	vec     *HistogramVec
}

// Registry is a named collection of instruments with Prometheus-text
// exposition. Registration is idempotent per (name, kind): asking for
// an existing name returns the existing instrument, so package-level wiring
// and tests can re-register freely. Registering a name under a different
// kind panics — that is a programming error, caught at wiring time, never
// on an observation path.
type Registry struct {
	mu       sync.Mutex
	families []*family // registration order, for stable exposition
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// lookup returns the family registered under name after checking its kind,
// or registers a new one built by mk. Call under no lock.
func (r *Registry) lookup(name, help string, kind int, mk func(*family)) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind}
	mk(f)
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Counter registers (or returns) the counter named name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, kindCounter, func(f *family) { f.counter = &Counter{} }).counter
}

// Gauge registers (or returns) the gauge named name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, kindGauge, func(f *family) { f.gauge = &Gauge{} }).gauge
}

// GaugeFunc registers a live gauge whose value is computed by fn at
// exposition time — for values the owner already maintains (queue depth,
// table sizes) where mirroring into a stored Gauge would just drift. fn runs
// outside the registry lock's critical path but during exposition; it must
// not call back into this registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.lookup(name, help, kindGaugeFunc, func(f *family) { f.gaugeFn = fn })
}

// Histogram registers (or returns) the histogram named name over the given
// bucket bounds (nil selects DefaultLatencyBuckets). Bounds are fixed at
// first registration.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.lookup(name, help, kindHistogram, func(f *family) { f.hist = NewHistogram(bounds) }).hist
}

// HistogramVec registers (or returns) a histogram family keyed by one label
// (e.g. per-backend plan latency, per-worker shard latency). Children are
// created lazily by With.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets()
	}
	return r.lookup(name, help, kindHistogramVec, func(f *family) {
		f.vec = &HistogramVec{label: label, bounds: append([]float64(nil), bounds...), children: make(map[string]*Histogram)}
	}).vec
}

// HistogramVec is a set of histograms sharing one name and bucket layout,
// distinguished by a single label value. With is allocation-free once a
// child exists, so vectors are safe on hot paths keyed by a small stable
// set of values (kernel backend names, worker URLs).
type HistogramVec struct {
	label  string
	bounds []float64

	mu       sync.RWMutex
	children map[string]*Histogram
}

// With returns the child histogram for the given label value, creating it on
// first use. The fast path (existing child) is a read-locked map lookup.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h, ok := v.children[value]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.children[value]; ok {
		return h
	}
	h = NewHistogram(v.bounds)
	v.children[value] = h
	return h
}

// snapshot returns the children sorted by label value for stable exposition.
func (v *HistogramVec) snapshot() (values []string, hists []*Histogram) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	values = make([]string, 0, len(v.children))
	for val := range v.children {
		values = append(values, val)
	}
	sort.Strings(values)
	hists = make([]*Histogram, len(values))
	for i, val := range values {
		hists[i] = v.children[val]
	}
	return values, hists
}

// --- exposition ----------------------------------------------------------

// formatFloat renders a float the way Prometheus text exposition expects.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeLabel escapes a label value for the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// writeHistogram emits one histogram's _bucket/_sum/_count series. labels is
// the pre-rendered label prefix (`worker="..."`), or "" for an unlabeled
// histogram, whose series read `name_sum 0.1`, not `name_sum{} 0.1`.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) error {
	counts, count, sum := h.snapshotBuckets()
	bucketLabels, series := "", ""
	if labels != "" {
		bucketLabels, series = labels+",", "{"+labels+"}"
	}
	cum := int64(0)
	for i, n := range counts {
		cum += n
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, bucketLabels, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, series, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, series, count)
	return err
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4), in registration order, with families
// annotated by # HELP and # TYPE lines.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		typ := "counter"
		switch f.kind {
		case kindGauge, kindGaugeFunc:
			typ = "gauge"
		case kindHistogram, kindHistogramVec:
			typ = "histogram"
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typ); err != nil {
			return err
		}
		var err error
		switch f.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", f.name, f.counter.Load())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %d\n", f.name, f.gauge.Load())
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.gaugeFn()))
		case kindHistogram:
			err = writeHistogram(w, f.name, "", f.hist)
		case kindHistogramVec:
			values, hists := f.vec.snapshot()
			for i, val := range values {
				labels := f.vec.label + `="` + escapeLabel(val) + `"`
				if err = writeHistogram(w, f.name, labels, hists[i]); err != nil {
					break
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}
