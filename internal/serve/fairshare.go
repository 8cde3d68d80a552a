package serve

import "sync"

// fairShare splits a fixed Monte-Carlo worker budget evenly across the jobs
// running at any moment. Each running job holds one Share, whose mc.Gate
// limit is total ÷ active (never below 1); when a job starts or finishes,
// every share's limit changes and parked engine workers are woken through
// the change channel. This replaces the process-global mc.SetWorkers, which
// a concurrent server cannot use: every job would claim the whole machine
// (or race on the global).
//
// The split is cooperative and approximate — a worker checks its admission
// between trials, not mid-trial — but results never depend on it: the mc
// determinism contract makes any admission schedule bit-identical.
type fairShare struct {
	total int
	met   *serverMetrics // engine-event sink; nil in bare tests

	mu      sync.Mutex
	active  int
	changed chan struct{}
}

func newFairShare(total int, met *serverMetrics) *fairShare {
	if total < 1 {
		total = 1
	}
	return &fairShare{total: total, met: met, changed: make(chan struct{})}
}

// notifyLocked wakes everything parked on the previous change channel.
func (f *fairShare) notifyLocked() {
	close(f.changed)
	f.changed = make(chan struct{})
}

// Share is one running job's slice of the worker budget; it implements
// mc.Gate. Obtain with acquire, return with release.
type Share struct {
	f        *fairShare
	feed     *progressFeed // the standalone job's progress; nil for shards
	released bool
}

// acquire registers one more running job and returns its gate. Every trial
// the engine completes behind the gate is credited to feed (nil: none).
func (f *fairShare) acquire(feed *progressFeed) *Share {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.active++
	f.notifyLocked()
	return &Share{f: f, feed: feed}
}

// release returns the share to the pool; the remaining jobs' limits grow.
// Safe to call more than once.
func (s *Share) release() {
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	if s.released {
		return
	}
	s.released = true
	s.f.active--
	s.f.notifyLocked()
}

// Limit implements mc.Gate: the per-job worker cap under the current load,
// plus the channel signalling the next load change.
func (s *Share) Limit() (int, <-chan struct{}) {
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	active := s.f.active
	if active < 1 {
		active = 1
	}
	limit := s.f.total / active
	if limit < 1 {
		limit = 1
	}
	return limit, s.f.changed
}

// TrialDone implements mc.Observer: every trial the engine completes behind
// this share bumps the process-wide trial counter and the job's progress
// feed. Observe-only — the engine ignores the call entirely, so results
// stay bit-identical.
func (s *Share) TrialDone(int) {
	if s.f.met != nil {
		s.f.met.trials.Inc()
	}
	s.feed.trial()
}

// WorkerParked implements mc.Observer: an engine worker started blocking on
// this share's admission limit.
func (s *Share) WorkerParked() {
	if s.f.met != nil {
		s.f.met.parks.Inc()
	}
}

// WorkerWoke implements mc.Observer: a parked engine worker resumed.
func (s *Share) WorkerWoke() {
	if s.f.met != nil {
		s.f.met.wakes.Inc()
	}
}
