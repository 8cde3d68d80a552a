package serve

// The shard-worker half of the distributed tier: POST /v1/shards computes
// trials [lo, hi) of a normalized request as raw per-trial observation rows
// (serialize.ShardRecord). Every swim-serve daemon speaks this endpoint —
// a worker is just a plain daemon a coordinator points at. Shard execution
// is single-flighted on the canonical shard key (a retrying coordinator or
// a second coordinator asking for the same range attaches to the running
// computation) and draws from the same fair-share worker budget as jobs.

import (
	"context"
	"net/http"

	"swim/internal/experiments"
	"swim/internal/mc"
	"swim/internal/program"
	"swim/internal/serialize"
)

// shardCall is one in-flight shard execution; concurrent requests for the
// same shard key wait on done and share the outcome.
type shardCall struct {
	done chan struct{}
	rec  *serialize.ShardRecord
	err  error
}

// handleShard computes one trial-range shard of a request. The embedded
// request is normalized exactly like a job submission, so the shard key is
// derived from the same canonical hash a coordinator computes.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	sreq, err := serialize.DecodeShardRequest(http.MaxBytesReader(w, r.Body, 1<<22))
	if err != nil {
		writeError(w, http.StatusBadRequest, serialize.ErrBadRequest, "%v", err)
		return
	}
	if sreq.Version != 0 && sreq.Version != serialize.ShardVersion {
		writeError(w, http.StatusBadRequest, serialize.ErrBadRequest,
			"unsupported shard version %d (worker speaks %d)", sreq.Version, serialize.ShardVersion)
		return
	}
	if sreq.Request == nil {
		writeError(w, http.StatusBadRequest, serialize.ErrBadRequest, "shard request carries no request record")
		return
	}
	norm, err := s.normalize(sreq.Request)
	if err != nil {
		writeError(w, http.StatusBadRequest, serialize.ErrBadRequest, "%v", err)
		return
	}
	if sreq.Lo < 0 || sreq.Hi > norm.Trials || sreq.Lo >= sreq.Hi {
		writeError(w, http.StatusBadRequest, serialize.ErrBadRequest,
			"shard range [%d,%d) outside [0,%d)", sreq.Lo, sreq.Hi, norm.Trials)
		return
	}
	key, err := norm.CanonicalKey()
	if err != nil {
		writeError(w, http.StatusInternalServerError, serialize.ErrInternal, "%v", err)
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, serialize.ErrUnavailable, "draining: no new shards accepted")
		return
	}

	shardKey := serialize.ShardKey(key, sreq.Lo, sreq.Hi)
	s.shardMu.Lock()
	if c, ok := s.shardCalls[shardKey]; ok {
		s.shardMu.Unlock()
		select {
		case <-c.done:
			writeShard(w, c.rec, c.err)
		case <-r.Context().Done():
		}
		return
	}
	c := &shardCall{done: make(chan struct{})}
	s.shardCalls[shardKey] = c
	s.shardMu.Unlock()

	// Run under the daemon lifecycle context, not the request's: if the
	// coordinator that asked gives up, the shard still completes and any
	// retry attaches to it through the single-flight map.
	share := s.budget.acquire(nil)
	c.rec, c.err = s.executeShard(s.baseCtx, norm, shardKey, sreq.Lo, sreq.Hi, share)
	share.release()
	close(c.done)
	s.shardMu.Lock()
	delete(s.shardCalls, shardKey)
	s.shardMu.Unlock()
	writeShard(w, c.rec, c.err)
}

// writeShard renders a completed shard call: the record on success, the
// /v1 error envelope otherwise.
func writeShard(w http.ResponseWriter, rec *serialize.ShardRecord, err error) {
	if err != nil {
		writeError(w, http.StatusInternalServerError, serialize.ErrInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// executeShard runs trials [lo, hi) of a normalized request through the
// same cell walk as execute — experiments.ScenarioShards shares its
// pipelines and seeds with ScenarioResults — and packages the raw rows as
// the shard wire record.
func (s *Server) executeShard(ctx context.Context, req *serialize.RequestRecord,
	shardKey string, lo, hi int, gate mc.Gate) (*serialize.ShardRecord, error) {

	w, scenarios, cfg, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	rec := &serialize.ShardRecord{
		Version: serialize.ShardVersion,
		Key:     shardKey,
		Lo:      lo,
		Hi:      hi,
		Trials:  req.Trials,
	}
	for _, sigma := range req.Sigmas {
		shards, err := experiments.ScenarioShards(ctx, w, sigma, scenarios, cfg, lo, hi,
			program.WithWorkers(s.cfg.TotalWorkers),
			program.WithWorkerGate(gate))
		if err != nil {
			return nil, err
		}
		for _, ss := range shards {
			rec.Cells = append(rec.Cells, serialize.ShardCell{
				Workload:      req.Workload,
				Sigma:         sigma,
				Scenario:      ss.Scenario,
				ReadTime:      ss.Shard.ReadTime,
				Policy:        ss.Policy,
				Targets:       ss.Shard.Targets,
				Nonidealities: ss.Shard.Nonidealities,
				Cost:          ss.Shard.Cost,
				Geometry:      ss.Shard.Geom,
				Calib:         ss.Shard.Calib,
				Probes:        ss.Shard.Probes,
				Rows:          ss.Shard.Rows,
			})
		}
	}
	s.met.shards.Inc()
	return rec, nil
}
