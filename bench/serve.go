package main

// In-process serving harness: loopback swim-serve daemons and the HTTP
// client the serve workloads drive them with.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"swim/internal/eval"
	"swim/internal/experiments"
	"swim/internal/serialize"
	"swim/internal/serve"
)

// daemon is one serve.Server listening on a loopback port.
type daemon struct {
	url  string
	stop func() error // drains and shuts the daemon down; idempotent
}

// startDaemon starts a daemon on an ephemeral loopback port.
func startDaemon(cfg serve.Config) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	s := serve.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, l) }()
	var once sync.Once
	var runErr error
	return &daemon{
		url: "http://" + l.Addr().String(),
		stop: func() error {
			once.Do(func() {
				cancel()
				runErr = <-done
			})
			return runErr
		},
	}, nil
}

// stopDaemons stops ds in order and uninstalls the evaluation observer the
// daemons installed, so later work in this process runs unobserved.
func stopDaemons(ds ...*daemon) error {
	var first error
	for _, d := range ds {
		if err := d.stop(); err != nil && first == nil {
			first = fmt.Errorf("daemon %s: %w", d.url, err)
		}
	}
	eval.SetPlanObserver(nil)
	return first
}

// only is a daemon workload table serving w under name.
func only(name string, w *experiments.Workload) map[string]func() *experiments.Workload {
	return map[string]func() *experiments.Workload{name: func() *experiments.Workload { return w }}
}

// client submits jobs over HTTP with at most conns connections.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// call performs one request and returns the body of a want-status reply.
func (c *client) call(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: http %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// served is one completed job as its client saw it.
type served struct {
	body    []byte               // result envelope bytes
	rec     *serialize.JobRecord // the terminal job record
	start   time.Time            // when the client began submitting
	latency time.Duration        // submit to last result byte
}

// run submits req, waits for the job and fetches its result. A fresh
// request must be computed, so a cache hit is an error.
func (c *client) run(ctx context.Context, req *serialize.RequestRecord) (*served, error) {
	start := time.Now()
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	data, err := c.call(ctx, http.MethodPost, "/v1/jobs", payload, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	var sub serialize.JobRecord
	if err := json.Unmarshal(data, &sub); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	if data, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"?wait=1", nil, http.StatusOK); err != nil {
		return nil, err
	}
	var rec serialize.JobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("job %s: %w", sub.ID, err)
	}
	if rec.Status != serialize.JobDone {
		return nil, fmt.Errorf("job %s ended %s: %s", rec.ID, rec.Status, rec.Error)
	}
	body, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return &served{body: body, rec: &rec, start: start, latency: time.Since(start)}, nil
}

// metricsJSON fetches the daemon's flat JSON metrics snapshot.
func (c *client) metricsJSON(ctx context.Context) (map[string]float64, error) {
	data, err := c.call(ctx, http.MethodGet, "/v1/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var snap map[string]any
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	out := map[string]float64{}
	for k, v := range snap {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// promSeries fetches the Prometheus exposition and returns the values of
// the named unlabelled series.
func (c *client) promSeries(ctx context.Context, names ...string) (map[string]float64, error) {
	data, err := c.call(ctx, http.MethodGet, "/v1/metrics?format=prometheus", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, sc.Err()
}

// serveTimes collects the serve layer's view of a workload's jobs.
type serveTimes struct {
	queue, exec, overhead []float64
}

// add records one job: queue wait, execution, and what the client waited
// beyond the daemon's own submit-to-finish interval.
func (t *serveTimes) add(s *served) {
	r := s.rec
	t.queue = append(t.queue, float64(r.Started-r.Submitted)/1e3)
	t.exec = append(t.exec, float64(r.Finished-r.Started)/1e3)
	t.overhead = append(t.overhead, s.latency.Seconds()-float64(r.Finished-r.Submitted)/1e3)
}

// summary returns the medians by diagnostic name.
func (t *serveTimes) summary() map[string]float64 {
	return map[string]float64{
		"serve.queue_p50_s":    median(t.queue),
		"serve.exec_p50_s":     median(t.exec),
		"serve.overhead_p50_s": median(t.overhead),
	}
}
