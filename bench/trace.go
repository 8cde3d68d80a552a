package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval of the traced replay. Trial spans are the
// roots of a trial's tree; the stage spans of that trial share its cell and
// trial IDs and nest inside it in time.
type span struct {
	name  string
	cell  string // cell (one pipeline run) the span belongs to
	trial int    // trial index within the cell, -1 outside trials
	lane  int    // 0 for run-level spans, 1..workers for trial lanes
	start time.Duration
	dur   time.Duration
	// kernelDur and kernelCalls are set on eval.accuracy spans: the part of
	// the span spent inside kernel primitives, and how many were called.
	kernelDur   time.Duration
	kernelCalls int
}

// tracer keeps the replay's spans in memory until the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// at converts a wall-clock instant to the tracer's time axis.
func (t *tracer) at(when time.Time) time.Duration { return when.Sub(t.origin) }

// add records spans; safe for concurrent use.
func (t *tracer) add(s ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// timed runs f and records it as a run-level span.
func (t *tracer) timed(name string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	t.add(span{name: name, trial: -1, start: t.at(start), dur: d})
	return d
}

// traceEvent is one entry of the Chrome trace-event format, which
// chrome://tracing and https://ui.perfetto.dev open directly.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans as a Chrome trace-event file; other carries the
// run's metadata and metrics under "otherData".
func (t *tracer) write(path string, other map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	events := []traceEvent{{Name: "thread_name", Ph: "M", PID: 1, TID: 0, Args: map[string]any{"name": "run"}}}
	for lane := 1; lane <= workers; lane++ {
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: lane,
			Args: map[string]any{"name": fmt.Sprintf("mc worker %d", lane)}})
	}
	for _, s := range t.spans {
		args := map[string]any{}
		if s.cell != "" {
			args["cell"] = s.cell
		}
		if s.trial >= 0 {
			args["trial"] = s.trial
			if s.name == "trial" {
				args["parent"] = "cell"
			} else {
				args["parent"] = "trial"
			}
		}
		if s.kernelCalls > 0 {
			args["kernel_us"] = float64(s.kernelDur.Nanoseconds()) / 1e3
			args["kernel_calls"] = s.kernelCalls
		}
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", PID: 1, TID: s.lane,
			TS: float64(s.start.Nanoseconds()) / 1e3, Dur: float64(s.dur.Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": other})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
