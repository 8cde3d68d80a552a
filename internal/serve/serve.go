// Package serve is the sweep-serving daemon behind cmd/swim-serve: a
// long-running HTTP/JSON service that owns trained workloads and answers
// sweep/scenario/table1/fig2 requests — the step from the research CLIs to a
// system that fronts heavy traffic.
//
// Requests arrive as serialize.RequestRecord JSON and run asynchronously on
// a bounded job queue; responses are serialize result envelopes whose cells
// wrap the same versioned result records the CLIs emit. Three properties
// make it a *deterministic* serving tier:
//
//   - Bit-identical answers. A job executes through the same
//     experiments.ScenarioResults path as the CLIs, and the mc determinism
//     contract makes its results independent of worker count and scheduling
//     — so an HTTP answer is byte-for-byte the swim-scenario -json output
//     for the equivalent invocation, no matter what else the daemon was
//     doing at the time.
//
//   - Fair-share worker budgeting. Concurrent jobs split a fixed
//     Monte-Carlo worker budget (total ÷ running jobs, re-balanced as jobs
//     start and finish) through cooperative mc.Gate shares, instead of each
//     job claiming every CPU via the process-global mc.SetWorkers. A share
//     is also the job's one trial tap: as an mc.Observer it sees every
//     trial complete and feeds both the daemon's trial counter and the
//     job's progress stream.
//
//   - Canonical result caching. Requests are normalized (defaults filled,
//     scenario specs re-rendered) and hashed (serialize.CanonicalKey);
//     determinism makes equal keys interchangeable, so a repeated request
//     is served from cache without recomputation, and identical in-flight
//     requests coalesce onto a single execution (single-flight).
//
// The same determinism contract scales the daemon horizontally: any /v1
// daemon doubles as a shard worker (POST /v1/shards computes a trial range
// of a request as raw per-trial rows), and a daemon configured with
// Config.WorkerURLs runs as a coordinator — it splits each job into
// trial-range shards, farms them out, retries failures onto surviving
// workers, journals completed shards under the state directory (killed
// runs resume without recomputation) and merges the rows back into a
// result envelope byte-identical to single-node execution.
//
// Endpoints (see docs/ARCHITECTURE.md for the full reference):
//
//	POST /v1/jobs              submit a request → job envelope (202; 200 on cache hit)
//	GET  /v1/jobs              list job envelopes (?status=, ?limit=, ?page_token=)
//	GET  /v1/jobs/{id}         one job envelope (?wait=1 long-polls until terminal)
//	GET  /v1/jobs/{id}/result  completed job's result envelope
//	GET  /v1/jobs/{id}/events  SSE stream of the job's progress events (replay + live)
//	POST /v1/jobs/{id}/cancel  cancel a queued or running job
//	POST /v1/shards            compute one trial-range shard (worker API)
//	GET  /v1/metrics           metrics: flat JSON snapshot, or Prometheus text via content negotiation
//	GET  /healthz              liveness + queue/cache statistics
//
// Every non-2xx response carries the uniform /v1 error envelope
// {"error":{"code":...,"message":...}} with a typed serialize.Err* code —
// including 404s for unknown routes and 405s for wrong verbs.
//
// Shutdown is a graceful drain: intake stops (submits get 503), queued and
// running jobs finish, and past the drain timeout the remaining jobs are
// cancelled via context cancellation flowing through program.Pipeline.Run.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"swim/internal/eval"
	"swim/internal/experiments"
	"swim/internal/serialize"
)

// Config parameterizes a Server. The zero value serves the four registry
// workloads with NumCPU worker goroutines, two concurrent jobs and a
// 64-deep queue.
type Config struct {
	// MaxConcurrent is how many jobs execute at once (default 2). Each
	// running job receives total ÷ running workers through its fair share.
	MaxConcurrent int
	// QueueDepth bounds the submitted-but-not-running backlog (default 64);
	// submissions beyond it are rejected with 503.
	QueueDepth int
	// TotalWorkers is the Monte-Carlo worker budget split across running
	// jobs (default runtime.NumCPU()).
	TotalWorkers int
	// Workloads maps request workload names to builders (default: the four
	// registry workloads lenet/convnet/resnet/tiny). Builders run at most
	// once per process, lazily, on first request — or restore instantly
	// from a state directory (experiments.SetStateDir).
	Workloads map[string]func() *experiments.Workload
	// DrainTimeout bounds graceful shutdown: once it expires, still-running
	// jobs are cancelled through their contexts (default 30s).
	DrainTimeout time.Duration
	// WorkerURLs switches the daemon into coordinator mode: each job is
	// split into trial-range shards dispatched to these /v1 base URLs
	// (plain daemons — every swim-serve is also a shard worker), with
	// failed shards retried on surviving workers and the merged envelope
	// byte-identical to single-node execution. Empty = standalone.
	WorkerURLs []string
	// ShardTrials sizes the coordinator's trial ranges (default: the job's
	// trial count split into about three waves per worker, minimum 1).
	ShardTrials int
	// JobTTL evicts terminal jobs (done/failed/cancelled) from the job
	// table this long after they finish (default 1h; negative disables
	// eviction). The canonical-key result cache is unaffected.
	JobTTL time.Duration
	// StateDir is the daemon's state directory. The coordinator journals
	// completed shards under StateDir/coord/<request key>/ so a killed run
	// resumes from its checkpoint instead of recomputing; unfinished
	// journalled jobs found at startup are re-enqueued automatically.
	StateDir string
	// CacheMaxEntries bounds the canonical-key result cache's entry count
	// (0 = unbounded). Least-recently-used entries are evicted first; the
	// newest result is always retained.
	CacheMaxEntries int
	// CacheMaxBytes bounds the result cache's total encoded size in bytes
	// (0 = unbounded), with the same LRU policy.
	CacheMaxBytes int64
	// ShardTarget steers the coordinator's latency-driven shard autotuner:
	// once enough shard round trips have been observed, shard sizes are
	// chosen so one shard takes about this long (default 1s; negative
	// disables autotuning; Config.ShardTrials overrides it entirely). Shard
	// size never affects result bytes — heterogeneous shards merge
	// identically — so tuning is journal-compatible and invisible to
	// clients.
	ShardTarget time.Duration
}

// DefaultWorkloads returns the standard registry workload set served by
// swim-serve: experiments.Workloads, keyed by the same names the CLIs use.
func DefaultWorkloads() map[string]func() *experiments.Workload {
	out := make(map[string]func() *experiments.Workload)
	for _, nw := range experiments.Workloads() {
		out[nw.Name] = nw.Build
	}
	return out
}

// workloadEntry lazily builds one workload exactly once, without holding
// the server mutex across a (potentially minutes-long) training run.
type workloadEntry struct {
	once  sync.Once
	build func() *experiments.Workload
	w     *experiments.Workload
}

// Server is the daemon: a workload registry, a bounded job queue executed
// by MaxConcurrent dispatchers under a fair-share worker budget, and a
// canonical-key result cache. Create with New, expose via Handler or Run.
type Server struct {
	cfg       Config
	budget    *fairShare
	mux       *http.ServeMux
	workloads map[string]*workloadEntry
	coord     *coordinator // non-nil in coordinator mode

	baseCtx   context.Context // parent of every job context
	cancelAll context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for listing and pagination
	queued   chan *job
	draining bool
	cache    *resultCache
	inflight map[string]*job // canonical key → primary queued/running job
	nextSeq  int64           // job sequence; assigned under mu for stable order

	shardMu    sync.Mutex
	shardCalls map[string]*shardCall // shard key → in-flight shard execution

	// met is the daemon's metrics registry; every operational counter the
	// old ad-hoc atomic struct carried now lives here (see metrics.go).
	met *serverMetrics
	wg  sync.WaitGroup // dispatcher goroutines

	// headerTimeout, idleTimeout and sseHeartbeat are serverHeaderTimeout,
	// serverIdleTimeout and serverSSEHeartbeat (tests shorten them).
	headerTimeout, idleTimeout, sseHeartbeat time.Duration
}

// New builds a Server and starts its dispatcher pool. In coordinator mode
// (Config.WorkerURLs non-empty) it also re-enqueues any unfinished
// journalled jobs found under the state directory.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 2
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 64
	}
	if cfg.TotalWorkers < 1 {
		cfg.TotalWorkers = runtime.NumCPU()
	}
	if cfg.Workloads == nil {
		cfg.Workloads = DefaultWorkloads()
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	s := &Server{
		cfg:        cfg,
		workloads:  make(map[string]*workloadEntry, len(cfg.Workloads)),
		jobs:       make(map[string]*job),
		queued:     make(chan *job, cfg.QueueDepth),
		inflight:   make(map[string]*job),
		shardCalls: make(map[string]*shardCall),

		headerTimeout: serverHeaderTimeout,
		idleTimeout:   serverIdleTimeout,
		sseHeartbeat:  serverSSEHeartbeat,
	}
	s.met = newServerMetrics(s)
	s.budget = newFairShare(cfg.TotalWorkers, s.met)
	s.cache = newResultCache(cfg.CacheMaxEntries, cfg.CacheMaxBytes, s.met)
	// The daemon owns the process, so it owns the process-global eval hook:
	// per-backend compiled-plan latency flows into the registry. (Embedded
	// test servers share the hook; the most recent daemon wins, which only
	// redirects observability, never results.)
	eval.SetPlanObserver(s.met)
	s.baseCtx, s.cancelAll = context.WithCancel(context.Background())
	for name, build := range cfg.Workloads {
		s.workloads[name] = &workloadEntry{build: build}
	}
	if len(cfg.WorkerURLs) > 0 {
		s.coord = newCoordinator(s, cfg)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("POST /v1/shards", s.handleShard)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	// JSON fallthroughs: unmatched paths get the /v1 404 envelope, known
	// paths hit with the wrong verb the 405 one (the method-specific
	// patterns above take precedence when the verb matches).
	s.mux.HandleFunc("/", s.handleNotFound)
	s.mux.HandleFunc("/v1/jobs", methodNotAllowed("GET, POST"))
	s.mux.HandleFunc("/v1/jobs/{id}", methodNotAllowed("GET"))
	s.mux.HandleFunc("/v1/jobs/{id}/result", methodNotAllowed("GET"))
	s.mux.HandleFunc("/v1/jobs/{id}/events", methodNotAllowed("GET"))
	s.mux.HandleFunc("/v1/jobs/{id}/cancel", methodNotAllowed("POST"))
	s.mux.HandleFunc("/v1/shards", methodNotAllowed("POST"))
	s.mux.HandleFunc("/v1/metrics", methodNotAllowed("GET"))
	s.mux.HandleFunc("/healthz", methodNotAllowed("GET"))
	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go s.dispatch()
	}
	if s.coord != nil {
		s.coord.resumePending()
	}
	return s
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// workloadNames lists the served workloads, sorted.
func (s *Server) workloadNames() []string {
	names := make([]string, 0, len(s.workloads))
	for name := range s.workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// workload resolves (building or restoring on first use) a registry
// workload.
func (s *Server) workload(name string) (*experiments.Workload, error) {
	e, ok := s.workloads[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown workload %q", name)
	}
	e.once.Do(func() { e.w = e.build() })
	if e.w == nil {
		return nil, fmt.Errorf("serve: workload %q failed to build", name)
	}
	return e.w, nil
}

// Connection timeouts of the HTTP server Run starts. A client gets
// serverHeaderTimeout to send a request's header, and an idle keep-alive
// connection is closed after serverIdleTimeout, longer than the 90 s after which
// Go's default transport (the coordinator's) drops its own idle
// connections. There is no write timeout: ?wait=1 long-polls and /events
// streams outlive any fixed bound.
const (
	serverHeaderTimeout = 10 * time.Second
	serverIdleTimeout   = 2 * time.Minute
)

// Run serves the API on l until ctx is cancelled, then drains gracefully
// and shuts the listener down. It returns the first serve error, or nil
// after a clean drain.
func (s *Server) Run(ctx context.Context, l net.Listener) error {
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: s.headerTimeout, IdleTimeout: s.idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.Drain(s.cfg.DrainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(shutCtx)
}

// Drain stops intake (submissions are rejected with 503), lets queued and
// running jobs finish, and cancels whatever is still running once timeout
// expires — the cancellation reaches trial bodies through
// program.Pipeline.Run's context. Idempotent; subsequent calls just wait.
func (s *Server) Drain(timeout time.Duration) {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queued) // dispatchers exit once the backlog is drained
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(timeout):
		s.cancelAll()
		<-drained
	}
}

// jobTTL resolves the configured terminal-job retention (0 = disabled).
func (s *Server) jobTTL() time.Duration {
	switch {
	case s.cfg.JobTTL < 0:
		return 0
	case s.cfg.JobTTL == 0:
		return time.Hour
	default:
		return s.cfg.JobTTL
	}
}

// evictLocked drops terminal jobs older than the TTL from the job table
// (the result cache is untouched — results stay cheap to re-serve). Called
// lazily from the submit/list/health paths, under the server mutex.
func (s *Server) evictLocked(now int64) {
	ttl := s.jobTTL()
	if ttl == 0 || len(s.order) == 0 {
		return
	}
	cutoff := now - ttl.Milliseconds()
	keep := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if j.terminal() && j.finished > 0 && j.finished <= cutoff {
			delete(s.jobs, id)
			s.met.jobsEvicted.Inc()
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

// --- HTTP handlers -------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // encode error means the client went away
}

// writeError emits the uniform /v1 error envelope with a typed code.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, &serialize.ErrorEnvelope{
		Error: serialize.ErrorRecord{Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// handleNotFound is the catch-all route: the /v1 404 envelope.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, serialize.ErrNotFound, "no route %s", r.URL.Path)
}

// methodNotAllowed builds the per-path wrong-verb fallthrough handler.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, serialize.ErrMethodNotAllowed,
			"method %s not allowed on %s (allow %s)", r.Method, r.URL.Path, allow)
	}
}

// handleSubmit accepts one request record, normalizes it and either serves
// it from the cache (200, Cached: true), coalesces it onto an identical
// in-flight job (202, Coalesced: true) or enqueues a new job (202).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := serialize.DecodeRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, serialize.ErrBadRequest, "%v", err)
		return
	}
	norm, err := s.normalize(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, serialize.ErrBadRequest, "%v", err)
		return
	}
	key, err := norm.CanonicalKey()
	if err != nil {
		writeError(w, http.StatusInternalServerError, serialize.ErrInternal, "%v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, serialize.ErrUnavailable, "draining: no new jobs accepted")
		return
	}
	s.evictLocked(nowMS())
	s.nextSeq++
	j := &job{
		id:        fmt.Sprintf("job-%d", s.nextSeq),
		seq:       s.nextSeq,
		key:       key,
		req:       norm,
		status:    serialize.JobQueued,
		submitted: nowMS(),
		done:      make(chan struct{}),
	}
	if env, ok := s.cache.get(key); ok {
		s.met.cacheHits.Inc()
		j.status = serialize.JobDone
		j.cached = true
		j.result = env
		j.started, j.finished = j.submitted, j.submitted
		// A cached job's event stream is just the terminal replay.
		j.feed = newFeedFor(norm)
		j.feed.finish(serialize.JobDone)
		close(j.done)
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		rec := j.record()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, rec)
		return
	}
	if p := s.inflight[key]; p != nil {
		// Single-flight: attach to the identical in-flight job instead of
		// computing the same answer twice; the primary's completion
		// finishes every attached follower. Followers share the primary's
		// progress feed — it is the same execution.
		j.coalesced = true
		j.feed = p.feed
		p.followers = append(p.followers, j)
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		rec := j.record()
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, rec)
		return
	}
	j.feed = newFeedFor(norm)
	select {
	case s.queued <- j:
	default:
		s.nextSeq-- // the job was never admitted
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, serialize.ErrUnavailable, "queue full (%d queued)", s.cfg.QueueDepth)
		return
	}
	s.met.cacheMisses.Inc()
	s.inflight[key] = j
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	rec := j.record()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, rec)
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// handleStatus reports one job envelope; with ?wait=1 it long-polls until
// the job reaches a terminal status or the client goes away.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, serialize.ErrNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.done:
		case <-r.Context().Done():
			return
		}
	}
	s.mu.Lock()
	rec := j.record()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, rec)
}

// listLimit parses the ?limit= query (default 100, capped at 1000).
func listLimit(raw string) (int, error) {
	if raw == "" {
		return 100, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("limit must be a positive integer, got %q", raw)
	}
	if n > 1000 {
		n = 1000
	}
	return n, nil
}

// handleList reports job envelopes in stable submit-time order, paginated.
// ?status= filters by lifecycle status, ?limit= bounds the page (default
// 100, max 1000) and ?page_token= resumes after a previous page's token;
// the response carries next_page_token while more jobs remain.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	status := q.Get("status")
	switch status {
	case "", serialize.JobQueued, serialize.JobRunning, serialize.JobDone, serialize.JobFailed, serialize.JobCancelled:
	default:
		writeError(w, http.StatusBadRequest, serialize.ErrBadRequest, "unknown status filter %q", status)
		return
	}
	limit, err := listLimit(q.Get("limit"))
	if err != nil {
		writeError(w, http.StatusBadRequest, serialize.ErrBadRequest, "%v", err)
		return
	}
	var after int64
	if tok := q.Get("page_token"); tok != "" {
		after, err = strconv.ParseInt(tok, 10, 64)
		if err != nil || after < 0 {
			writeError(w, http.StatusBadRequest, serialize.ErrBadRequest, "malformed page token %q", tok)
			return
		}
	}

	s.mu.Lock()
	s.evictLocked(nowMS())
	recs := make([]*serialize.JobRecord, 0, limit)
	var last int64
	next := ""
	for _, id := range s.order {
		j := s.jobs[id]
		if j.seq <= after || (status != "" && j.status != status) {
			continue
		}
		if len(recs) == limit {
			next = strconv.FormatInt(last, 10)
			break
		}
		recs = append(recs, j.record())
		last = j.seq
	}
	s.mu.Unlock()
	body := map[string]any{"jobs": recs}
	if next != "" {
		body["next_page_token"] = next
	}
	writeJSON(w, http.StatusOK, body)
}

// handleResult streams a completed job's result envelope — the bytes the
// equivalent CLI invocation would print with -json.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, serialize.ErrNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	status, env := j.status, j.result
	s.mu.Unlock()
	if env == nil {
		writeError(w, http.StatusConflict, serialize.ErrConflict, "job %s is %s, not done", j.id, status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = serialize.EncodeEnvelope(w, env) // encode error means the client went away
}

// handleCancel cancels a queued or running job (terminal jobs are left
// untouched and reported as-is). Cancelling a primary job also cancels the
// coalesced followers riding its execution.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, serialize.ErrNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	switch j.status {
	case serialize.JobQueued:
		// The dispatcher will skip it when it surfaces from the queue.
		j.finishLocked(serialize.JobCancelled, nil, "")
		if s.inflight[j.key] == j {
			// A cancelled primary never runs: release the single-flight
			// slot and cancel the followers that were riding it.
			delete(s.inflight, j.key)
			for _, f := range j.followers {
				if f.status == serialize.JobQueued {
					f.finishLocked(serialize.JobCancelled, nil, "cancelled with primary job "+j.id)
				}
			}
		}
	case serialize.JobRunning:
		j.cancel() // runJob records the terminal status
	}
	rec := j.record()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, rec)
}

// handleHealth reports liveness plus queue/cache statistics.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	s.evictLocked(nowMS())
	queued, running := s.jobStatesLocked()
	stats := map[string]any{
		"status":          status,
		"mode":            "standalone",
		"jobs_total":      len(s.jobs),
		"jobs_queued":     queued,
		"jobs_running":    running,
		"executed":        s.met.executed.Load(),
		"shards_executed": s.met.shards.Load(),
		"cache_entries":   s.cache.len(),
		"workers_total":   s.cfg.TotalWorkers,
		"workloads":       s.workloadNames(),
	}
	if s.coord != nil {
		stats["mode"] = "coordinator"
		stats["coordinator_workers"] = s.coord.workerURLs()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, stats)
}

// handleMetrics reports the daemon's operational metrics. The default
// representation is the original flat JSON snapshot (unchanged keys, so
// pre-existing clients keep parsing it); a client preferring text/plain or
// OpenMetrics — or asking with ?format=prometheus — gets the full registry
// in the Prometheus text exposition format, histograms included. Counters
// are monotonic over the process lifetime; gauges are instantaneous.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		// The registry's live gauges take the server mutex themselves; no
		// lock may be held here.
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.met.reg.WritePrometheus(w) // write error means the client went away
		return
	}
	s.mu.Lock()
	s.evictLocked(nowMS())
	status := "ok"
	if s.draining {
		status = "draining"
	}
	queued, running := s.jobStatesLocked()
	queueDepth := len(s.queued)
	jobsTotal := len(s.jobs)
	inflight := len(s.inflight)
	cacheEntries := s.cache.len()
	cacheBytes := s.cache.bytes
	s.mu.Unlock()
	s.shardMu.Lock()
	shardsInflight := len(s.shardCalls)
	s.shardMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":            status,
		"queue_depth":       queueDepth,
		"jobs_total":        jobsTotal,
		"jobs_queued":       queued,
		"jobs_running":      running,
		"jobs_inflight":     inflight,
		"jobs_evicted":      s.met.jobsEvicted.Load(),
		"executed":          s.met.executed.Load(),
		"cache_hits":        s.met.cacheHits.Load(),
		"cache_misses":      s.met.cacheMisses.Load(),
		"cache_entries":     cacheEntries,
		"cache_evictions":   s.met.cacheEvictions.Load(),
		"cache_bytes":       cacheBytes,
		"shards_executed":   s.met.shards.Load(),
		"shards_inflight":   shardsInflight,
		"shards_dispatched": s.met.shardsDispatched.Load(),
		"shard_retries":     s.met.shardRetries.Load(),
		"workers_evicted":   s.met.workersEvicted.Load(),
		"workers_total":     s.cfg.TotalWorkers,
	})
}
