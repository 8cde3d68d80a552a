package serve

import (
	"context"
	"time"

	"swim/internal/serialize"
)

// job is one submitted request's lifecycle. All state transitions happen
// under the server mutex; done is closed exactly once, when the job reaches
// a terminal status (done, failed or cancelled), and backs the ?wait=1
// long-poll.
type job struct {
	id        string
	seq       int64  // submission sequence (stable list order, page tokens)
	key       string // canonical request hash (the cache key)
	req       *serialize.RequestRecord
	status    string
	cached    bool
	coalesced bool
	errMsg    string

	submitted int64 // unix ms
	started   int64
	finished  int64

	cancel    context.CancelFunc // non-nil once running
	result    *serialize.ResultEnvelope
	followers []*job // coalesced jobs riding this job's execution
	feed      *progressFeed
	done      chan struct{}
}

func nowMS() int64 { return time.Now().UnixMilli() }

// terminal reports whether the job reached a final status. Call under the
// server mutex.
func (j *job) terminal() bool {
	switch j.status {
	case serialize.JobDone, serialize.JobFailed, serialize.JobCancelled:
		return true
	}
	return false
}

// finishLocked moves the job to a terminal status, seals its progress feed
// (ending any SSE streams with the terminal event) and wakes the ?wait=1
// long-polls. Call under the server mutex, at most once per job. Coalesced
// followers share their primary's feed; the first finisher seals it and the
// rest are no-ops (finish is idempotent).
func (j *job) finishLocked(status string, env *serialize.ResultEnvelope, errMsg string) {
	j.status = status
	j.result = env
	j.errMsg = errMsg
	j.finished = nowMS()
	j.feed.finish(status)
	close(j.done)
}

// record snapshots the job as its wire envelope. The result payload stays
// out — clients fetch it from the result endpoint, keeping job listings
// cheap — but the progress block rides along once the job has started, so
// polling clients track advancement without SSE. Call under the server
// mutex.
func (j *job) record() *serialize.JobRecord {
	rec := &serialize.JobRecord{
		ID:        j.id,
		Status:    j.status,
		Cached:    j.cached,
		Coalesced: j.coalesced,
		Request:   j.req,
		Error:     j.errMsg,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
	}
	if j.started > 0 {
		rec.Progress = j.feed.snapshot()
	}
	return rec
}

// dispatch is one job-runner goroutine: it drains the queue until the
// queue closes (drain) and runs each job under the fair-share budget.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for j := range s.queued {
		s.runJob(j)
	}
}

// runJob executes one queued job through the experiments/program stack —
// or, in coordinator mode, through the distributed shard scheduler — with a
// request-scoped context (cancellable via the cancel endpoint and the
// server-wide abort) and a fair-share worker gate. Completion finishes the
// job's coalesced followers with the same outcome.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.status != serialize.JobQueued { // cancelled while queued
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.cancel = cancel
	j.status = serialize.JobRunning
	j.started = nowMS()
	s.mu.Unlock()
	defer cancel()

	var env *serialize.ResultEnvelope
	var err error
	sp := s.met.jobStage.Start()
	if s.coord != nil {
		env, err = s.coord.run(ctx, j.key, j.req, j.feed)
	} else {
		share := s.budget.acquire(j.feed)
		env, err = s.execute(ctx, j.req, share)
		share.release()
	}
	sp.End()

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, j.key)
	status, errMsg := serialize.JobDone, ""
	if err != nil {
		env = nil
		errMsg = err.Error()
		if ctx.Err() != nil {
			status = serialize.JobCancelled
		} else {
			status = serialize.JobFailed
		}
	} else {
		s.met.executed.Inc()
		s.cache.put(j.key, env)
	}
	j.finishLocked(status, env, errMsg)
	for _, f := range j.followers {
		if f.status != serialize.JobQueued { // cancelled individually
			continue
		}
		f.started = j.started
		f.finishLocked(status, env, errMsg)
	}
}
