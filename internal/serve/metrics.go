package serve

// The daemon's observability surface: every operational counter lives in one
// obs.Registry, exposed on GET /v1/metrics as Prometheus text or as the
// original flat JSON snapshot via content negotiation. The registry replaces
// the ad-hoc atomic counter struct the server used to carry; instruments are
// shared by reference with the subsystems that update them (fair-share gate,
// coordinator, cache).

import (
	"net/http"
	"strings"

	"swim/internal/obs"
	"swim/internal/serialize"
)

// serverMetrics bundles the daemon's registry and the instruments updated on
// hot paths. It implements eval.PlanObserver, wiring per-plan-execution
// latency into the per-backend histogram vector.
type serverMetrics struct {
	reg *obs.Registry

	executed       *obs.Counter // jobs actually computed (cache misses that ran)
	shards         *obs.Counter // trial-range shards computed by this worker
	cacheHits      *obs.Counter // submissions answered straight from the cache
	cacheMisses    *obs.Counter // submissions that enqueued a fresh computation
	cacheEvictions *obs.Counter // result-cache entries evicted by the LRU bounds
	cacheBytes     *obs.Gauge   // encoded bytes held by the result cache
	jobsEvicted    *obs.Counter // terminal jobs dropped by the TTL sweep
	// Coordinator-mode dispatch counters (zero in standalone mode).
	shardsDispatched *obs.Counter // shard calls attempted against workers
	shardRetries     *obs.Counter // failed shard calls requeued elsewhere
	workersEvicted   *obs.Counter // workers abandoned after repeated failures
	// Engine-level events reported through the fair-share gate's Observer.
	trials *obs.Counter // Monte-Carlo trials completed in this process
	parks  *obs.Counter // engine workers parked by the fair-share gate
	wakes  *obs.Counter // parked engine workers resumed

	sseClients *obs.Gauge // currently connected /v1/jobs/{id}/events streams

	jobStage       *obs.Stage        // wall-clock of each executed job
	shardLatency   *obs.Histogram    // coordinator-observed shard round trips
	shardTrialSecs *obs.Histogram    // shard round trip ÷ trial count (autotuner input)
	workerShardLat *obs.HistogramVec // shard round trips by worker URL
	planLatency    *obs.HistogramVec // compiled-plan batch executions by kernel backend
}

// newServerMetrics builds the daemon's registry: counters and histograms the
// subsystems update directly, plus live gauges computed from server state at
// exposition time. The gauge functions take the server mutex, so exposition
// must never run while it is held.
func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg:              r,
		executed:         r.Counter("swim_jobs_executed_total", "jobs computed to completion (cache misses that ran)"),
		jobsEvicted:      r.Counter("swim_jobs_evicted_total", "terminal jobs dropped by the TTL sweep"),
		cacheHits:        r.Counter("swim_cache_hits_total", "submissions answered from the canonical-key result cache"),
		cacheMisses:      r.Counter("swim_cache_misses_total", "submissions that enqueued a fresh computation"),
		cacheEvictions:   r.Counter("swim_cache_evictions_total", "result-cache entries evicted by the LRU bounds"),
		cacheBytes:       r.Gauge("swim_cache_bytes", "encoded result bytes held by the cache"),
		shards:           r.Counter("swim_shards_executed_total", "trial-range shards computed by this worker"),
		shardsDispatched: r.Counter("swim_shards_dispatched_total", "shard calls attempted against workers"),
		shardRetries:     r.Counter("swim_shard_retries_total", "failed shard calls requeued onto surviving workers"),
		workersEvicted:   r.Counter("swim_workers_evicted_total", "workers abandoned after repeated shard failures"),
		trials:           r.Counter("swim_mc_trials_total", "Monte-Carlo trials completed in this process"),
		parks:            r.Counter("swim_mc_worker_parks_total", "engine workers parked by the fair-share gate"),
		wakes:            r.Counter("swim_mc_worker_wakes_total", "parked engine workers resumed"),
		sseClients:       r.Gauge("swim_sse_clients", "connected job-event SSE streams"),
	}
	m.jobStage = &obs.Stage{H: r.Histogram("swim_job_seconds", "wall-clock seconds per executed job", nil)}
	m.shardLatency = r.Histogram("swim_shard_latency_seconds", "coordinator-observed shard round-trip seconds", nil)
	m.shardTrialSecs = r.Histogram("swim_shard_trial_seconds", "shard round-trip seconds per trial (autotuner input)", nil)
	m.workerShardLat = r.HistogramVec("swim_worker_shard_latency_seconds", "shard round-trip seconds by worker", "worker", nil)
	m.planLatency = r.HistogramVec("swim_eval_plan_seconds", "compiled-plan batch execution seconds by kernel backend", "backend", nil)

	r.GaugeFunc("swim_queue_depth", "jobs waiting in the submission queue", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.queued))
	})
	r.GaugeFunc("swim_jobs_queued", "jobs in the queued state", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		q, _ := s.jobStatesLocked()
		return float64(q)
	})
	r.GaugeFunc("swim_jobs_running", "jobs in the running state", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, run := s.jobStatesLocked()
		return float64(run)
	})
	r.GaugeFunc("swim_jobs_total", "jobs retained in the job table", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.jobs))
	})
	r.GaugeFunc("swim_jobs_inflight", "distinct canonical keys executing (single-flight primaries)", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.inflight))
	})
	r.GaugeFunc("swim_cache_entries", "entries in the canonical-key result cache", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.cache.len())
	})
	r.GaugeFunc("swim_shards_inflight", "shard executions currently running on this worker", func() float64 {
		s.shardMu.Lock()
		defer s.shardMu.Unlock()
		return float64(len(s.shardCalls))
	})
	r.GaugeFunc("swim_workers_total", "configured Monte-Carlo worker budget", func() float64 {
		return float64(s.cfg.TotalWorkers)
	})
	return m
}

// ObservePlan implements eval.PlanObserver: one compiled-plan batch
// execution, bucketed by kernel backend. Allocation-free once a backend's
// child histogram exists (backends are a small fixed set).
func (m *serverMetrics) ObservePlan(backend string, seconds float64) {
	m.planLatency.With(backend).Observe(seconds)
}

// jobStatesLocked counts queued and running jobs; the caller holds s.mu.
func (s *Server) jobStatesLocked() (queued, running int) {
	for _, j := range s.jobs {
		switch j.status {
		case serialize.JobQueued:
			queued++
		case serialize.JobRunning:
			running++
		}
	}
	return queued, running
}

// wantsPrometheus decides the /v1/metrics representation: the Prometheus
// text exposition when the client asks for it via ?format=prometheus or an
// Accept header preferring text/plain (or OpenMetrics), the original flat
// JSON snapshot otherwise — so pre-existing JSON clients keep working
// untouched while scrapers get histograms.
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}
