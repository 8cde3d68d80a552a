package serve

// Failure-edge tests of the distributed tier — the paths the happy-path
// distributed tests never exercise: per-job worker eviction healing on the
// next job, journal resume over a corrupt checkpoint file, and the
// calibration axis surviving the full coordinator round trip bit for bit.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"swim/internal/serialize"
)

// The calibration acceptance bar at the serve layer: a calib+cost request
// sharded across two workers merges into the exact bytes single-node
// execution produces, with the probe budgets drawn per trial rather than
// per shard.
func TestCoordinatorCalibByteIdentity(t *testing.T) {
	w1, w2 := newWorker(t), newWorker(t)
	_, coord := newTestServer(t, Config{
		WorkerURLs:  []string{w1.URL, w2.URL},
		ShardTrials: 2,
		Workloads:   testWorkloads(),
	})

	req := testRequest(306, "drift:nu=0.1")
	req.Cost = "rram"
	req.Calib = "gainoffset:probes=4"
	// The reference runs the normalized request (the daemon hashes and
	// executes the canonical spelled-out calib spec, not the client's).
	norm := *req
	norm.Calib = "gainoffset:probes=4" // already canonical for this model
	want := referenceEnvelope(t, &norm)

	rec, code := submit(t, coord, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit code %d", code)
	}
	done := await(t, coord, rec.ID)
	if done.Status != serialize.JobDone {
		t.Fatalf("calibrated coordinator job: %s (%s)", done.Status, done.Error)
	}
	if done.Request.Calib != "gainoffset:probes=4" {
		t.Fatalf("normalized request calib = %q", done.Request.Calib)
	}
	if got := fetchResult(t, coord, rec.ID); !bytes.Equal(got, want) {
		t.Errorf("calibrated merged result differs from single-node:\ncoord: %s\ncli:   %s", got, want)
	}
}

// A request spelling the calibration model loosely must normalize to the
// canonical spec, and a calibrated request must never share a cache key
// with its uncalibrated twin.
func TestCalibAxisNormalizedAndKeyed(t *testing.T) {
	s, _ := newTestServer(t, Config{Workloads: testWorkloads()})
	base := testRequest(307, "")
	norm, err := s.normalize(base)
	if err != nil {
		t.Fatal(err)
	}
	with := testRequest(307, "")
	with.Calib = "gainoffset"
	normWith, err := s.normalize(with)
	if err != nil {
		t.Fatal(err)
	}
	if normWith.Calib == "gainoffset" || normWith.Calib == "" {
		t.Fatalf("calib spec not canonicalized: %q", normWith.Calib)
	}
	k1, err := norm.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := normWith.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("calibrated and uncalibrated requests share a canonical key")
	}
	none := testRequest(307, "")
	none.Calib = "none"
	normNone, err := s.normalize(none)
	if err != nil {
		t.Fatal(err)
	}
	k3, err := normNone.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if k3 != k1 {
		t.Fatal(`calib "none" does not share the disabled form's key`)
	}
	bad := testRequest(307, "")
	bad.Calib = "gainoffset:probes=1"
	if _, err := s.normalize(bad); err == nil {
		t.Fatal("invalid calib spec normalized")
	}
}

// flakyProxy forwards /v1/shards to a worker but fails every call while
// broken is set.
func flakyProxy(t *testing.T, target string, broken *atomic.Bool, calls *atomic.Int64) *httptest.Server {
	t.Helper()
	inner := countingProxy(t, target, calls)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			calls.Add(1) // count the refused attempt too
			writeError(w, http.StatusInternalServerError, serialize.ErrInternal, "injected outage")
			return
		}
		http.Redirect(w, r, inner.URL+r.URL.Path, http.StatusTemporaryRedirect)
	}))
	t.Cleanup(proxy.Close)
	return proxy
}

// Worker eviction is per job, not per daemon: a worker abandoned after
// maxWorkerFails consecutive failures in one job must be re-admitted to the
// pool for the next job once it heals.
func TestWorkerReadmittedAfterEviction(t *testing.T) {
	good := newWorker(t)
	var broken atomic.Bool
	var flakyCalls atomic.Int64
	broken.Store(true)
	flaky := flakyProxy(t, good.URL, &broken, &flakyCalls)

	_, coord := newTestServer(t, Config{
		WorkerURLs:  []string{flaky.URL, good.URL},
		ShardTrials: 1,
		Workloads:   testWorkloads(),
	})

	// Job 1: the flaky worker fails until evicted; the job still completes
	// on the survivor.
	rec, _ := submit(t, coord, testRequest(308, "stuckat:p=0.05"))
	if done := await(t, coord, rec.ID); done.Status != serialize.JobDone {
		t.Fatalf("job with a broken worker: %s (%s)", done.Status, done.Error)
	}
	resp, err := http.Get(coord.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if evicted, _ := metrics["workers_evicted"].(float64); evicted != 1 {
		t.Fatalf("workers_evicted = %v, want 1", metrics["workers_evicted"])
	}
	failedCalls := flakyCalls.Load()
	if failedCalls < maxWorkerFails {
		t.Fatalf("flaky worker saw %d calls before eviction, want >= %d", failedCalls, maxWorkerFails)
	}

	// Job 2 after the worker heals: the coordinator must dispatch to it
	// again — eviction does not outlive the job that observed the failures.
	broken.Store(false)
	rec2, _ := submit(t, coord, testRequest(309, "stuckat:p=0.05"))
	if done := await(t, coord, rec2.ID); done.Status != serialize.JobDone {
		t.Fatalf("job after heal: %s (%s)", done.Status, done.Error)
	}
	if flakyCalls.Load() <= failedCalls {
		t.Fatal("healed worker was never re-admitted to the pool")
	}
}

// A corrupt journal checkpoint (torn write, bit rot) must not poison resume:
// the bad file's range recomputes, the valid checkpoints are reused, and the
// merged bytes still match single-node execution.
func TestCoordinatorJournalResumeCorruptShard(t *testing.T) {
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
	req := testRequest(310, "stuckat:p=0.05")
	want := referenceEnvelope(t, req)

	s1, coord1 := newTestServer(t, cfg)
	rec, _ := submit(t, coord1, req)
	if done := await(t, coord1, rec.ID); done.Status != serialize.JobDone {
		t.Fatalf("first run: %s (%s)", done.Status, done.Error)
	}
	firstCalls := calls.Load()
	coord1.Close()
	s1.Drain(2 * time.Second)

	dirs, err := filepath.Glob(filepath.Join(state, "coord", "*"))
	if err != nil || len(dirs) != 1 {
		t.Fatalf("journal dirs: %v (%v)", dirs, err)
	}
	if err := os.Remove(filepath.Join(dirs[0], "result.json")); err != nil {
		t.Fatal(err)
	}
	// Corrupt one checkpoint instead of deleting it: truncated JSON is the
	// torn-write shape writeAtomic exists to prevent elsewhere.
	corrupt := filepath.Join(dirs[0], "shard-000002-000004.json")
	if err := os.WriteFile(corrupt, []byte(`{"version":1,"key":"`), 0o644); err != nil {
		t.Fatal(err)
	}

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
		t.Fatalf("resume dispatched %d shards, want 1 (only the corrupt range)", delta)
	}
}
