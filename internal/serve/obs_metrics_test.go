package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"swim/internal/kernel"
	"swim/internal/serialize"
)

func getMetrics(t *testing.T, url, accept, query string) (string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/metrics"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: http %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// TestMetricsPrometheusExposition scrapes the registry after a real job:
// counters, live gauges and histograms all render in the text format, under
// both negotiation paths.
func TestMetricsPrometheusExposition(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	rec, _ := submit(t, ts, testRequest(51, ""))
	if got := await(t, ts, rec.ID).Status; got != serialize.JobDone {
		t.Fatalf("job finished %s", got)
	}

	body, ct := getMetrics(t, ts.URL, "text/plain", "")
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE swim_jobs_executed_total counter",
		"swim_jobs_executed_total 1",
		"# TYPE swim_job_seconds histogram",
		"swim_job_seconds_bucket{le=\"+Inf\"} 1",
		"swim_job_seconds_count 1",
		"# TYPE swim_shard_latency_seconds histogram",
		"swim_shard_latency_seconds_count 0",
		"# TYPE swim_eval_plan_seconds histogram",
		"swim_eval_plan_seconds_bucket{backend=\"" + kernel.Default().Name() + "\",le=\"+Inf\"}",
		"# TYPE swim_cache_entries gauge",
		"swim_cache_entries 1",
		"swim_mc_trials_total 10", // 5 trials × 2 cells
		"swim_queue_depth 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}

	qBody, qCT := getMetrics(t, ts.URL, "", "?format=prometheus")
	if !strings.HasPrefix(qCT, "text/plain; version=0.0.4") {
		t.Fatalf("?format=prometheus Content-Type = %q", qCT)
	}
	if !strings.Contains(qBody, "swim_jobs_executed_total") {
		t.Fatal("?format=prometheus did not render the text exposition")
	}

	// The engine's park/wake accounting must stay balanced.
	if parks, wakes := s.met.parks.Load(), s.met.wakes.Load(); parks != wakes {
		t.Fatalf("parks %d != wakes %d", parks, wakes)
	}
}

// TestMetricsJSONBackCompat pins the legacy flat-JSON snapshot: every
// pre-existing key survives (clients grep these), with the new cache fields
// alongside.
func TestMetricsJSONBackCompat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rec, _ := submit(t, ts, testRequest(52, ""))
	await(t, ts, rec.ID)

	body, ct := getMetrics(t, ts.URL, "", "")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("default Content-Type = %q, want JSON", ct)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"status", "queue_depth", "jobs_total", "jobs_queued", "jobs_running",
		"jobs_inflight", "jobs_evicted", "executed", "cache_hits", "cache_misses",
		"cache_entries", "cache_evictions", "cache_bytes", "shards_executed",
		"shards_inflight", "shards_dispatched", "shard_retries",
		"workers_evicted", "workers_total",
	} {
		if _, ok := m[key]; !ok {
			t.Fatalf("JSON metrics missing key %q", key)
		}
	}
	if got := m["executed"].(float64); got != 1 {
		t.Fatalf("executed = %v, want 1", got)
	}
}
