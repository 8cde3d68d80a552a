package serve

// End-to-end tests of the distributed tier: coordinator-merged envelopes
// must be byte-identical to single-node execution, failed shards must move
// to surviving workers, and the shard journal must make restarts resume
// instead of recompute.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"swim/internal/experiments"
	"swim/internal/serialize"
)

// testWorkloads is the workload table shared by worker and coordinator
// servers (the coordinator only needs the name for normalization — it
// never builds the workload).
func testWorkloads() map[string]func() *experiments.Workload {
	return map[string]func() *experiments.Workload{"test": tinyWorkload}
}

// newWorker starts one plain daemon to serve /v1/shards.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	_, ts := newTestServer(t, Config{TotalWorkers: 2, Workloads: testWorkloads()})
	return ts
}

func healthz(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// The distributed acceptance bar: a job sharded across two workers merges
// into the exact bytes the single-node (and CLI) path produces. The same
// warm coordinator and workers then serve a job that differs only in seed
// and one that differs only in σ, which must not reuse the first job's
// cycle table or anything else keyed on it.
func TestCoordinatorByteIdentity(t *testing.T) {
	w1, w2 := newWorker(t), newWorker(t)
	_, coord := newTestServer(t, Config{
		WorkerURLs:  []string{w1.URL, w2.URL},
		ShardTrials: 2,
		Workloads:   testWorkloads(),
	})

	req := testRequest(301, "stuckat:p=0.05")
	req.Cost = "rram" // the cost axis must survive the shard round trip too
	reseeded := *req
	reseeded.Seed++
	resigma := *req
	resigma.Sigmas = []float64{0.5}
	for _, tc := range []struct {
		name string
		req  *serialize.RequestRecord
	}{{"first job", req}, {"another seed", &reseeded}, {"another sigma", &resigma}} {
		want := referenceEnvelope(t, tc.req)
		rec, code := submit(t, coord, tc.req)
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit code %d", tc.name, code)
		}
		done := await(t, coord, rec.ID)
		if done.Status != serialize.JobDone {
			t.Fatalf("%s: coordinator job: %s (%s)", tc.name, done.Status, done.Error)
		}
		if got := fetchResult(t, coord, rec.ID); !bytes.Equal(got, want) {
			t.Errorf("%s: merged result differs from single-node:\ncoord: %s\ncli:   %s", tc.name, got, want)
		}
	}

	// 5 trials at 2 per shard = 3 shards per job, all computed by the pool.
	total := healthz(t, w1.URL)["shards_executed"].(float64) + healthz(t, w2.URL)["shards_executed"].(float64)
	if total != 9 {
		t.Errorf("pool computed %v shards for three jobs, want 9", total)
	}
	if mode := healthz(t, coord.URL)["mode"]; mode != "coordinator" {
		t.Errorf("coordinator healthz mode = %v", mode)
	}
}

// A worker that always fails must lose its shards to the surviving worker
// without corrupting the merged result.
func TestCoordinatorReassignsFailedShards(t *testing.T) {
	good := newWorker(t)
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusInternalServerError, serialize.ErrInternal, "injected failure")
	}))
	t.Cleanup(bad.Close)

	_, coord := newTestServer(t, Config{
		WorkerURLs:  []string{bad.URL, good.URL},
		ShardTrials: 1, // five shards: plenty of reassignment traffic
		Workloads:   testWorkloads(),
	})
	req := testRequest(302, "drift:nu=0.1")
	want := referenceEnvelope(t, req)
	rec, _ := submit(t, coord, req)
	done := await(t, coord, rec.ID)
	if done.Status != serialize.JobDone {
		t.Fatalf("job with one dead worker: %s (%s)", done.Status, done.Error)
	}
	if got := fetchResult(t, coord, rec.ID); !bytes.Equal(got, want) {
		t.Error("reassigned result differs from single-node")
	}
}

// A worker whose reply runs past the coordinator's bound fails its shard,
// which moves to the surviving worker. The oversized reply is a valid shard
// record behind a run of leading whitespace, so only the bound rejects it.
func TestCoordinatorRejectsOversizedShardReply(t *testing.T) {
	const limit = 64 << 10
	good := newWorker(t)
	var bloatedCalls atomic.Int64
	bloated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bloatedCalls.Add(1)
		resp, err := http.Post(good.URL+r.URL.Path, "application/json", r.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(bytes.Repeat([]byte(" "), limit))
		_, _ = io.Copy(w, resp.Body)
	}))
	t.Cleanup(bloated.Close)

	s, coord := newTestServer(t, Config{
		WorkerURLs:  []string{bloated.URL, good.URL},
		ShardTrials: 1,
		Workloads:   testWorkloads(),
	})
	s.coord.replyLimit = limit
	req := testRequest(304, "drift:nu=0.1")
	want := referenceEnvelope(t, req)
	rec, _ := submit(t, coord, req)
	done := await(t, coord, rec.ID)
	if done.Status != serialize.JobDone {
		t.Fatalf("job with one oversized-reply worker: %s (%s)", done.Status, done.Error)
	}
	if got := fetchResult(t, coord, rec.ID); !bytes.Equal(got, want) {
		t.Error("result after oversized replies differs from single-node")
	}
	calls, retries := bloatedCalls.Load(), s.met.shardRetries.Load()
	if calls == 0 || retries != calls {
		t.Fatalf("oversized-reply worker served %d shard calls, %d retried; want every one retried", calls, retries)
	}
}

// With the whole pool failing the job must fail — with the worker error
// surfaced, not a hang.
func TestCoordinatorFailsWhenPoolLost(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusInternalServerError, serialize.ErrInternal, "injected failure")
	}))
	t.Cleanup(bad.Close)
	_, coord := newTestServer(t, Config{
		WorkerURLs: []string{bad.URL},
		Workloads:  testWorkloads(),
	})
	rec, _ := submit(t, coord, testRequest(303, ""))
	done := await(t, coord, rec.ID)
	if done.Status != serialize.JobFailed {
		t.Fatalf("job against a dead pool: %s", done.Status)
	}
	if done.Error == "" {
		t.Fatal("failed job carries no error")
	}
}

// countingProxy forwards /v1/shards calls to a worker, counting them.
func countingProxy(t *testing.T, target string, calls *atomic.Int64) *httptest.Server {
	t.Helper()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shards" {
			calls.Add(1)
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.Path, r.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	t.Cleanup(proxy.Close)
	return proxy
}

// The checkpoint/resume contract: a coordinator restarted mid-job (here:
// journal with one shard deleted and no result marker) re-enqueues the
// journalled job at startup and recomputes ONLY the missing range.
func TestCoordinatorJournalResume(t *testing.T) {
	state := t.TempDir()
	worker := newWorker(t)
	var calls atomic.Int64
	proxy := countingProxy(t, worker.URL, &calls)

	cfg := Config{
		WorkerURLs:  []string{proxy.URL},
		ShardTrials: 2,
		StateDir:    state,
		Workloads:   testWorkloads(),
	}
	req := testRequest(304, "stuckat:p=0.05")
	want := referenceEnvelope(t, req)

	s1, coord1 := newTestServer(t, cfg)
	rec, _ := submit(t, coord1, req)
	if done := await(t, coord1, rec.ID); done.Status != serialize.JobDone {
		t.Fatalf("first run: %s (%s)", done.Status, done.Error)
	}
	if got := fetchResult(t, coord1, rec.ID); !bytes.Equal(got, want) {
		t.Fatal("first run result differs from single-node")
	}
	firstCalls := calls.Load()
	if firstCalls != 3 { // 5 trials at 2 per shard
		t.Fatalf("first run dispatched %d shards, want 3", firstCalls)
	}
	coord1.Close()
	s1.Drain(2 * time.Second)

	// Simulate a coordinator killed mid-job: one shard checkpoint missing,
	// no result marker.
	dirs, err := filepath.Glob(filepath.Join(state, "coord", "*"))
	if err != nil || len(dirs) != 1 {
		t.Fatalf("journal dirs: %v (%v)", dirs, err)
	}
	if err := os.Remove(filepath.Join(dirs[0], "result.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dirs[0], "shard-000002-000004.json")); err != nil {
		t.Fatal(err)
	}

	// A restarted coordinator picks the journalled job back up on its own.
	_, coord2 := newTestServer(t, cfg)
	deadline := time.Now().Add(30 * time.Second)
	var resumed serialize.JobRecord
	for {
		page := fetchList(t, coord2, "?status=done")
		if len(page.Jobs) == 1 {
			resumed = page.Jobs[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journalled job never resumed: %+v", fetchList(t, coord2, ""))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := fetchResult(t, coord2, resumed.ID); !bytes.Equal(got, want) {
		t.Fatal("resumed result differs from single-node")
	}
	if delta := calls.Load() - firstCalls; delta != 1 {
		t.Fatalf("resume dispatched %d shards, want 1 (only the deleted range)", delta)
	}
	if _, err := os.Stat(filepath.Join(dirs[0], "result.json")); err != nil {
		t.Fatalf("resumed job left no result marker: %v", err)
	}
}

// The worker endpoint itself: validation errors carry typed codes, and a
// valid shard request returns the right range of rows.
func TestShardEndpoint(t *testing.T) {
	worker := newWorker(t)
	post := func(body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(worker.URL+"/v1/shards", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		payload, _ := io.ReadAll(resp.Body)
		return resp, payload
	}

	req := testRequest(305, "")
	for name, sr := range map[string]*serialize.ShardRequest{
		"no request":     {Version: serialize.ShardVersion, Lo: 0, Hi: 1},
		"inverted range": {Version: serialize.ShardVersion, Request: req, Lo: 3, Hi: 1},
		"range too wide": {Version: serialize.ShardVersion, Request: req, Lo: 0, Hi: 99},
		"bad version":    {Version: 42, Request: req, Lo: 0, Hi: 1},
	} {
		body, _ := json.Marshal(sr)
		resp, payload := post(body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s → %d (%s)", name, resp.StatusCode, payload)
		}
		if env, err := serialize.DecodeError(bytes.NewReader(payload)); err != nil || env.Error.Code != serialize.ErrBadRequest {
			t.Errorf("%s: not a typed bad_request envelope: %s", name, payload)
		}
	}

	body, _ := json.Marshal(&serialize.ShardRequest{Version: serialize.ShardVersion, Request: req, Lo: 1, Hi: 4})
	resp, payload := post(body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid shard → %d (%s)", resp.StatusCode, payload)
	}
	rec, err := serialize.DecodeShard(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Lo != 1 || rec.Hi != 4 || rec.Trials != req.Trials {
		t.Fatalf("shard metadata: %+v", rec)
	}
	// testRequest: 2 policies × 1 sigma × 1 scenario × 1 time = 2 cells,
	// each carrying hi-lo rows of 3×len(NWCs) values (accuracy, NWC spent,
	// raw write-verify cycles).
	if len(rec.Cells) != 2 {
		t.Fatalf("cells = %d", len(rec.Cells))
	}
	for _, cell := range rec.Cells {
		if len(cell.Rows) != 3 {
			t.Fatalf("cell rows = %d, want 3", len(cell.Rows))
		}
		for _, row := range cell.Rows {
			if len(row) != 3*len(req.NWCs) {
				t.Fatalf("row width = %d, want %d", len(row), 3*len(req.NWCs))
			}
		}
	}
}
