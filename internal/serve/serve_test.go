package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"swim/internal/data"
	"swim/internal/experiments"
	"swim/internal/models"
	"swim/internal/program"
	"swim/internal/rng"
	"swim/internal/serialize"
	"swim/internal/swim"
	"swim/internal/train"
)

// tinyWorkload is a deliberately small trained workload (one epoch, 100
// training samples) shared by every test — built once, exactly like the
// registry builders build theirs.
var (
	tinyOnce sync.Once
	tinyW    *experiments.Workload
)

func tinyWorkload() *experiments.Workload {
	tinyOnce.Do(func() {
		ds := data.MNISTLike(100, 50, 5)
		net := models.LeNet(10, 4, rng.New(5))
		cfg := train.DefaultConfig()
		cfg.Epochs = 1
		cfg.LRDecayEvery = 1
		cfg.QATBits = 4
		train.SGD(net, ds, cfg, rng.New(6))
		cx, cy := data.Subset(ds.TrainX, ds.TrainY, 64)
		tinyW = &experiments.Workload{
			Name: "tiny-serve", Net: net, DS: ds, WeightBits: 4,
			CleanAcc: train.Evaluate(net, ds.TestX, ds.TestY, 32),
			Hess:     swim.Sensitivity(net, cx, cy, 32),
			Weights:  swim.FlatWeights(net),
		}
	})
	return tinyW
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workloads == nil {
		cfg.Workloads = map[string]func() *experiments.Workload{"test": tinyWorkload}
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(2 * time.Second)
	})
	return s, ts
}

// testRequest returns a fully specified small request; explicit fields keep
// the reference computation and the normalized server request identical.
func testRequest(seed uint64, scenarios string) *serialize.RequestRecord {
	return &serialize.RequestRecord{
		Version: serialize.RequestVersion, Kind: serialize.KindSweep, Workload: "test",
		Sigmas: []float64{1.0}, Policies: []string{"noverify", "swim"},
		NWCs: []float64{0, 0.1}, Scenarios: scenarios, Times: []float64{0},
		Seed: seed, Trials: 5, EvalBatch: 32,
	}
}

func submit(t *testing.T, ts *httptest.Server, req *serialize.RequestRecord) (*serialize.JobRecord, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		return nil, resp.StatusCode
	}
	var rec serialize.JobRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		t.Fatalf("submit response %s: %v", payload, err)
	}
	return &rec, resp.StatusCode
}

func await(t *testing.T, ts *httptest.Server, id string) *serialize.JobRecord {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rec serialize.JobRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	return &rec
}

func fetchResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result fetch: %d %s", resp.StatusCode, body)
	}
	return body
}

// referenceEnvelope computes the request the way the CLI path does —
// sequentially, one worker, no gate — and serializes it, byte-for-byte as
// the daemon's result endpoint would. It runs on a fresh copy of the test
// workload, so nothing a server derived and kept on the shared one (cycle
// tables, rankings) can feed the reference.
func referenceEnvelope(t *testing.T, req *serialize.RequestRecord) []byte {
	t.Helper()
	tw := tinyWorkload()
	fresh := &experiments.Workload{
		Name: tw.Name, Net: tw.Net, DS: tw.DS, WeightBits: tw.WeightBits,
		CleanAcc: tw.CleanAcc, Hess: tw.Hess, Weights: tw.Weights,
	}
	scenarios, err := experiments.ParseScenarios(req.Scenarios)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.ScenarioConfig{
		NWCs: req.NWCs, Times: req.Times, Policies: req.Policies,
		Trials: req.Trials, Seed: req.Seed, EvalBatch: req.EvalBatch,
		Cost: req.Cost, Calib: req.Calib,
	}
	env := &serialize.ResultEnvelope{}
	for _, sigma := range req.Sigmas {
		results, err := experiments.ScenarioResults(context.Background(), fresh, sigma, scenarios, cfg,
			program.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		env.Cells = append(env.Cells, experiments.EnvelopeCells(req.Workload, sigma, results)...)
	}
	var buf bytes.Buffer
	if err := serialize.EncodeEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The acceptance bar of the serving tier: two jobs submitted concurrently,
// splitting the worker budget through the fair share, each return results
// bit-identical to the sequential single-worker CLI path.
func TestServeDeterminismUnderConcurrentJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{TotalWorkers: 4, MaxConcurrent: 2})
	reqA := testRequest(101, "stuckat:p=0.05")
	reqB := testRequest(202, "drift:nu=0.1")
	wantA := referenceEnvelope(t, reqA)
	wantB := referenceEnvelope(t, reqB)

	recA, codeA := submit(t, ts, reqA)
	recB, codeB := submit(t, ts, reqB)
	if codeA != http.StatusAccepted || codeB != http.StatusAccepted {
		t.Fatalf("submit codes = %d, %d", codeA, codeB)
	}
	doneA := await(t, ts, recA.ID)
	doneB := await(t, ts, recB.ID)
	if doneA.Status != serialize.JobDone || doneB.Status != serialize.JobDone {
		t.Fatalf("jobs did not finish: %s=%s (%s), %s=%s (%s)",
			doneA.ID, doneA.Status, doneA.Error, doneB.ID, doneB.Status, doneB.Error)
	}
	if got := fetchResult(t, ts, recA.ID); !bytes.Equal(got, wantA) {
		t.Errorf("job A result differs from the CLI path:\nhttp: %s\ncli:  %s", got, wantA)
	}
	if got := fetchResult(t, ts, recB.ID); !bytes.Equal(got, wantB) {
		t.Errorf("job B result differs from the CLI path:\nhttp: %s\ncli:  %s", got, wantB)
	}
}

func TestServeCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{TotalWorkers: 2})
	req := testRequest(55, "")
	first, code := submit(t, ts, req)
	if code != http.StatusAccepted || first.Cached {
		t.Fatalf("first submit: code %d cached %v", code, first.Cached)
	}
	if rec := await(t, ts, first.ID); rec.Status != serialize.JobDone {
		t.Fatalf("first job %s: %s", rec.Status, rec.Error)
	}
	b1 := fetchResult(t, ts, first.ID)
	if n := s.met.executed.Load(); n != 1 {
		t.Fatalf("executed = %d after one job", n)
	}

	second, code := submit(t, ts, req)
	if code != http.StatusOK || !second.Cached || second.Status != serialize.JobDone {
		t.Fatalf("repeat submit not served from cache: code %d, %+v", code, second)
	}
	if b2 := fetchResult(t, ts, second.ID); !bytes.Equal(b1, b2) {
		t.Fatal("cached result differs from the computed one")
	}
	if n := s.met.executed.Load(); n != 1 {
		t.Fatalf("cache hit recomputed: executed = %d", n)
	}
}

func TestServeCancelMidJob(t *testing.T) {
	_, ts := newTestServer(t, Config{TotalWorkers: 1, MaxConcurrent: 1})
	long := testRequest(77, "")
	long.Trials = 20000 // far longer than the test will wait
	rec, code := submit(t, ts, long)
	if code != http.StatusAccepted {
		t.Fatalf("submit code %d", code)
	}
	// Wait until it is actually running so the cancel exercises the
	// mid-pipeline context path, not the queued shortcut.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		var j serialize.JobRecord
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if j.Status == serialize.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running (status %s)", j.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs/"+rec.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	done := await(t, ts, rec.ID)
	if done.Status != serialize.JobCancelled {
		t.Fatalf("status after cancel = %s (%s)", done.Status, done.Error)
	}
	// The result must not exist for a cancelled job.
	rr, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("result fetch for cancelled job = %d, want 409", rr.StatusCode)
	}
}

func TestServeCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{TotalWorkers: 1, MaxConcurrent: 1})
	blocker := testRequest(88, "")
	blocker.Trials = 20000
	brec, _ := submit(t, ts, blocker)
	queued := testRequest(89, "")
	qrec, _ := submit(t, ts, queued)

	resp, err := http.Post(ts.URL+"/v1/jobs/"+qrec.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled serialize.JobRecord
	if err := json.NewDecoder(resp.Body).Decode(&cancelled); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cancelled.Status != serialize.JobCancelled {
		t.Fatalf("queued job after cancel = %s", cancelled.Status)
	}
	// Unblock the dispatcher for cleanup.
	resp, err = http.Post(ts.URL+"/v1/jobs/"+brec.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	await(t, ts, brec.ID)
}

func TestServeGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{TotalWorkers: 2, MaxConcurrent: 1})
	req := testRequest(66, "")
	rec, code := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit code %d", code)
	}
	// Drain must let the in-flight job finish, then refuse new work while
	// keeping completed results fetchable.
	s.Drain(30 * time.Second)
	if _, code := submit(t, ts, testRequest(67, "")); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", code)
	}
	done := await(t, ts, rec.ID)
	if done.Status != serialize.JobDone {
		t.Fatalf("drained job status = %s (%s)", done.Status, done.Error)
	}
	if got := fetchResult(t, ts, rec.ID); len(got) == 0 {
		t.Fatal("result unavailable after drain")
	}
	var health map[string]any
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "draining" {
		t.Fatalf("healthz status = %v, want draining", health["status"])
	}
}

func TestServeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{TotalWorkers: 1})
	cases := []string{
		`{"kind": "sweep", "workload": "nope"}`,
		`{"kind": "mystery", "workload": "test"}`,
		`{"kind": "sweep", "workload": "test", "nwcs": [0.3, 0.1]}`,
		`{"kind": "sweep", "workload": "test", "times": [-5]}`,
		`{"kind": "sweep", "workload": "test", "policies": ["bogus"]}`,
		`{"kind": "sweep", "workload": "test", "scenarios": "warpfield"}`,
		`{"kind": "sweep", "workload": "test", "future_knob": true}`,
		`{"kind": "sweep", "workload": "test", "kernel": "blocked"}`,
		// t0=inf would canonicalize to "t0=+Inf", whose '+' splits the
		// stack, so the job could not parse its own spec.
		`{"kind": "sweep", "workload": "test", "scenarios": "drift:t0=inf"}`,
		`{"kind": "sweep", "workload": "test", "scenarios": "drift:nu=nan"}`,
		`{"kind": "sweep", "workload": "test", "trials": 100000000}`,
		`not json`,
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s → %d (%s), want 400", body, resp.StatusCode, payload)
		}
	}
}

func TestServeHealthAndList(t *testing.T) {
	_, ts := newTestServer(t, Config{TotalWorkers: 1})
	rec, _ := submit(t, ts, testRequest(91, ""))
	await(t, ts, rec.ID)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}
	if wl, ok := health["workloads"].([]any); !ok || len(wl) != 1 || wl[0] != "test" {
		t.Fatalf("healthz workloads = %v", health["workloads"])
	}

	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []serialize.JobRecord `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != rec.ID {
		t.Fatalf("job list = %+v", list.Jobs)
	}
}

// Normalization must produce identical canonical keys for a defaulted
// request and its explicit spelling — the cache contract.
func TestNormalizeCanonicalKeys(t *testing.T) {
	s, _ := newTestServer(t, Config{TotalWorkers: 1})
	short, err := s.normalize(&serialize.RequestRecord{Kind: serialize.KindScenario, Workload: "test", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	def := experiments.DefaultScenarioConfig()
	explicit, err := s.normalize(&serialize.RequestRecord{
		Version: serialize.RequestVersion, Kind: serialize.KindScenario, Workload: "test",
		Sigmas: []float64{experiments.SigmaHigh}, Policies: def.Policies,
		NWCs: def.NWCs, Scenarios: "none", Times: def.Times,
		Seed: 9, Trials: def.Trials, EvalBatch: def.EvalBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	k1, err := short.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := explicit.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("defaulted and explicit requests hash differently:\n%+v\n%+v", short, explicit)
	}
	// Scenario spelling variants normalize to one canonical spec.
	a, err := s.normalize(&serialize.RequestRecord{Kind: serialize.KindSweep, Workload: "test", Scenarios: "stuckat"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.normalize(&serialize.RequestRecord{Kind: serialize.KindSweep, Workload: "test", Scenarios: "stuckat:p=0.001,high=0.5"})
	if err != nil {
		t.Fatal(err)
	}
	ka, _ := a.CanonicalKey()
	kb, _ := b.CanonicalKey()
	if ka != kb {
		t.Fatalf("scenario spellings hash differently: %q vs %q", a.Scenarios, b.Scenarios)
	}
}

func TestNormalizeKindDefaults(t *testing.T) {
	s, _ := newTestServer(t, Config{TotalWorkers: 1, Workloads: map[string]func() *experiments.Workload{
		"test": tinyWorkload, "lenet": tinyWorkload, "convnet": tinyWorkload,
	}})
	table1, err := s.normalize(&serialize.RequestRecord{Kind: serialize.KindTable1})
	if err != nil {
		t.Fatal(err)
	}
	if table1.Workload != "lenet" || len(table1.Sigmas) != 3 || len(table1.Policies) != len(experiments.Methods) {
		t.Fatalf("table1 defaults: %+v", table1)
	}
	fig2, err := s.normalize(&serialize.RequestRecord{Kind: serialize.KindFig2})
	if err != nil {
		t.Fatal(err)
	}
	if fig2.Workload != "convnet" || len(fig2.Sigmas) != 1 {
		t.Fatalf("fig2 defaults: %+v", fig2)
	}
}

// BenchmarkServeThroughput measures end-to-end jobs/s at several
// concurrency levels (distinct seeds defeat the cache); the EXPERIMENTS.md
// serving table comes from this benchmark.
func BenchmarkServeThroughput(b *testing.B) {
	tinyWorkload()
	for _, conc := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("jobs=%d", conc), func(b *testing.B) {
			s := New(Config{
				TotalWorkers: 4, MaxConcurrent: conc, QueueDepth: 1024,
				Workloads: map[string]func() *experiments.Workload{"test": tinyWorkload},
			})
			ts := httptest.NewServer(s.Handler())
			defer func() {
				ts.Close()
				s.Drain(time.Second)
			}()
			seed := uint64(1)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for c := 0; c < conc; c++ {
					seed++
					req := testRequest(seed, "")
					body, _ := json.Marshal(req)
					resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
					if err != nil {
						b.Fatal(err)
					}
					var rec serialize.JobRecord
					if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
						b.Fatal(err)
					}
					resp.Body.Close()
					wg.Add(1)
					go func(id string) {
						defer wg.Done()
						resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=1")
						if err == nil {
							_, _ = io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
					}(rec.ID)
				}
				wg.Wait()
			}
			b.ReportMetric(float64(b.N*conc)/time.Since(start).Seconds(), "jobs/s")
		})
	}
}

// A client that stops mid-header, or leaves a keep-alive connection idle,
// loses the connection once the server's timeout runs out, instead of
// holding it forever.
func TestRunClosesStalledConnections(t *testing.T) {
	s := New(Config{Workloads: map[string]func() *experiments.Workload{"test": tinyWorkload}})
	s.headerTimeout = 200 * time.Millisecond
	s.idleTimeout = 200 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.Run(ctx, l) }()
	t.Cleanup(func() {
		cancel()
		if err := <-errc; err != nil {
			t.Errorf("Run: %v", err)
		}
	})

	// closedWithin reports whether the server closes conn before d passes.
	closedWithin := func(conn net.Conn, d time.Duration) bool {
		t.Helper()
		if err := conn.SetReadDeadline(time.Now().Add(d)); err != nil {
			t.Fatal(err)
		}
		_, err := conn.Read(make([]byte, 1))
		return errors.Is(err, io.EOF)
	}

	stalled, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "GET /healthz HTTP/1.1\r\nHost: swim\r\n"); err != nil {
		t.Fatal(err)
	}
	if !closedWithin(stalled, 10*time.Second) {
		t.Fatal("connection stalled mid-header still open after 10 s")
	}

	idle, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := io.WriteString(idle, "GET /healthz HTTP/1.1\r\nHost: swim\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(idle), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz on a fresh connection: %d", resp.StatusCode)
	}
	if !closedWithin(idle, 10*time.Second) {
		t.Fatal("idle keep-alive connection still open after 10 s")
	}
}
