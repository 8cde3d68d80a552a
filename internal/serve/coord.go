package serve

// The coordinator half of the distributed tier. A daemon configured with
// Config.WorkerURLs never computes jobs locally: it splits each job's trial
// space [0, trials) into contiguous ranges, dispatches them as POST
// /v1/shards calls across the worker pool, retries failed shards on
// surviving workers (a worker is abandoned after a few consecutive
// failures), and merges the returned per-trial rows — in trial order,
// through the engine's exact reduction — into a result envelope
// byte-identical to single-node execution.
//
// Completed shards are journalled under StateDir/coord/<request key>/ the
// moment they arrive, so the checkpoint IS the shard wire format: a
// coordinator killed mid-job resumes by loading the journalled ranges and
// dispatching only the gaps, and unfinished journalled jobs found at
// startup are re-enqueued automatically.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swim/internal/obs"
	"swim/internal/serialize"
)

// maxWorkerFails is how many consecutive shard failures abandon a worker.
const maxWorkerFails = 3

// autotuneMinObs is how many shard round trips the autotuner wants before
// trusting the latency median; earlier jobs fall back to the static
// heuristic.
const autotuneMinObs = 3

// defaultShardTarget is the autotuner's target shard duration when
// Config.ShardTarget is unset.
const defaultShardTarget = time.Second

// maxShardReplyBytes bounds the shard reply body the coordinator reads,
// sized from the largest reply the daemon's defaults let a request produce.
// A value costs at most 37 bytes of the worker's indented JSON (a float64
// renders in at most 25 characters, such as -0.0000012345678901234567,
// after 10 spaces of indentation and before ",\n"), and a row at most 21
// more in brackets. A row holds 3 values per NWC target, so one trial of
// the largest default grid, Table 1's 3 σ × 4 policies = 12 cells over 7
// targets, costs at most 12 × (21×37 + 21) = 9,576 bytes. Before the
// autotuner has samples (and after, at its one-second shards, far less) one
// worker gets at most a third of a job, whose trials the daemon caps at
// maxTrials = 100,000: 33,334 × 9,576 B ≈ 319 MB. 512 MiB (537 MB) leaves
// the per-cell metadata and custom grids over half again of that. A longer
// reply is a shard error, retried like any other; a job that needs one (a
// custom grid far past the defaults, or a large pinned ShardTrials) needs
// smaller shards.
const maxShardReplyBytes = 512 << 20

// trialRange is one half-open slice [lo, hi) of a job's trial space.
type trialRange struct{ lo, hi int }

// coordWorker is one worker endpoint's dispatch state within a single job:
// failures must be consecutive to kill it, and any success resets the
// count.
type coordWorker struct {
	url   string
	fails int
}

// coordinator schedules trial-range shards across a worker pool.
type coordinator struct {
	s           *Server
	urls        []string
	shardTrials int
	target      time.Duration  // autotuner shard-duration target (0 = disabled)
	perTrial    *obs.Histogram // observed per-trial shard seconds (autotuner input)
	dir         string         // journal root ("" disables checkpointing)
	client      *http.Client
	replyLimit  int64 // shard reply bound, maxShardReplyBytes (tests shorten it)
}

func newCoordinator(s *Server, cfg Config) *coordinator {
	urls := make([]string, 0, len(cfg.WorkerURLs))
	for _, u := range cfg.WorkerURLs {
		urls = append(urls, strings.TrimRight(u, "/"))
	}
	dir := ""
	if cfg.StateDir != "" {
		dir = filepath.Join(cfg.StateDir, "coord")
	}
	target := cfg.ShardTarget
	switch {
	case target == 0:
		target = defaultShardTarget
	case target < 0:
		target = 0 // explicit opt-out
	}
	return &coordinator{
		s: s, urls: urls, shardTrials: cfg.ShardTrials,
		target: target, perTrial: s.met.shardTrialSecs,
		dir: dir, client: &http.Client{}, replyLimit: maxShardReplyBytes,
	}
}

// workerURLs lists the configured worker endpoints (for healthz).
func (c *coordinator) workerURLs() []string {
	return append([]string(nil), c.urls...)
}

// rangeSize resolves the shard size for a job. Precedence: the configured
// ShardTrials pin wins outright; otherwise, once the autotuner has seen
// enough shard round trips, the size targets Config.ShardTarget per shard
// using the running median per-trial latency (clamped to [1, trials ÷
// workers] so every worker still gets work); before that — or with
// autotuning disabled — the static heuristic of about three dispatch waves
// per worker applies, so a lost worker costs at most a third of one
// worker's share. Shard size never affects result bytes: heterogeneous
// shards merge bit-identically, and journalled shards from a differently
// sized earlier run remain valid checkpoints.
func (c *coordinator) rangeSize(trials int) int {
	if c.shardTrials > 0 {
		return c.shardTrials
	}
	if c.target > 0 && c.perTrial.Count() >= autotuneMinObs {
		if med := c.perTrial.Quantile(0.5); med > 0 {
			size := int(c.target.Seconds() / med)
			if size < 1 {
				size = 1
			}
			if cap := trials / len(c.urls); cap >= 1 && size > cap {
				size = cap
			}
			return size
		}
	}
	size := trials / (3 * len(c.urls))
	if size < 1 {
		size = 1
	}
	return size
}

// splitRange cuts [lo, hi) into contiguous ranges of at most size trials.
func splitRange(lo, hi, size int) []trialRange {
	var out []trialRange
	for lo < hi {
		end := lo + size
		if end > hi {
			end = hi
		}
		out = append(out, trialRange{lo, end})
		lo = end
	}
	return out
}

// run executes one job by sharding its trial space across the worker pool
// and merging the rows back together. key is the job's canonical request
// hash; the journalled checkpoint lives under it. A non-nil feed is
// re-planned in shard units — one granule per shard, journalled shards
// counted up front — and advanced as shards land.
func (c *coordinator) run(ctx context.Context, key string, req *serialize.RequestRecord, feed *progressFeed) (*serialize.ResultEnvelope, error) {
	done, err := c.loadJournal(key, req)
	if err != nil {
		return nil, err
	}
	c.journalRequest(key, req)

	todo := c.missingRanges(req.Trials, done)
	cells := cellCount(req)
	covered := 0
	for _, sh := range done {
		covered += sh.Hi - sh.Lo
	}
	feed.setPlan(len(done), len(done)+len(todo), covered*cells)
	if len(todo) > 0 {
		fresh, err := c.dispatch(ctx, key, req, todo, feed, cells)
		if err != nil {
			return nil, err
		}
		done = append(done, fresh...)
	}
	env, err := serialize.MergeShards(req.Trials, done)
	if err != nil {
		return nil, err
	}
	c.journalResult(key, env)
	return env, nil
}

// missingRanges computes the trial ranges not covered by journalled
// shards, split to the job's shard size. Journalled coverage is contiguous
// non-overlapping by construction (gaps are only ever filled, never
// re-dispatched), so a simple sweep finds the holes.
func (c *coordinator) missingRanges(trials int, done []*serialize.ShardRecord) []trialRange {
	size := c.rangeSize(trials)
	sorted := append([]*serialize.ShardRecord(nil), done...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	var todo []trialRange
	next := 0
	for _, sh := range sorted {
		if sh.Lo > next {
			todo = append(todo, splitRange(next, sh.Lo, size)...)
		}
		if sh.Hi > next {
			next = sh.Hi
		}
	}
	if next < trials {
		todo = append(todo, splitRange(next, trials, size)...)
	}
	return todo
}

// dispatch farms the given ranges out across the worker pool: each worker
// goroutine pulls ranges from a shared queue, failed ranges are requeued
// for surviving workers, and a worker is abandoned after maxWorkerFails
// consecutive failures. It returns once every range has a shard record, or
// fails when the whole pool is lost or ctx is cancelled.
func (c *coordinator) dispatch(ctx context.Context, key string, req *serialize.RequestRecord, todo []trialRange, feed *progressFeed, cells int) ([]*serialize.ShardRecord, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Requeues never exceed the range count (a range is queued, in flight,
	// or done), so the buffer makes every send non-blocking.
	work := make(chan trialRange, len(todo))
	for _, r := range todo {
		work <- r
	}

	var (
		mu        sync.Mutex
		recs      []*serialize.ShardRecord
		journErr  error
		remaining = len(todo)
		lastErr   atomic.Value
		aliveN    atomic.Int64
		wg        sync.WaitGroup
	)
	aliveN.Store(int64(len(c.urls)))

	for _, u := range c.urls {
		wg.Add(1)
		go func(cw *coordWorker) {
			defer wg.Done()
			for {
				var r trialRange
				var ok bool
				select {
				case r, ok = <-work:
					if !ok {
						return
					}
				case <-ctx.Done():
					return
				}
				c.s.met.shardsDispatched.Inc()
				t0 := time.Now()
				rec, err := c.callShard(ctx, cw.url, key, req, r)
				if err != nil {
					work <- r // hand the range to a surviving worker
					if ctx.Err() != nil {
						return
					}
					c.s.met.shardRetries.Inc()
					lastErr.Store(fmt.Errorf("worker %s shard [%d,%d): %w", cw.url, r.lo, r.hi, err))
					cw.fails++
					if cw.fails >= maxWorkerFails {
						if aliveN.Add(-1) == 0 {
							cancel() // whole pool lost: fail the job
						}
						c.s.met.workersEvicted.Inc()
						return
					}
					continue
				}
				sec := time.Since(t0).Seconds()
				c.s.met.shardLatency.Observe(sec)
				c.s.met.workerShardLat.With(cw.url).Observe(sec)
				c.perTrial.Observe(sec / float64(r.hi-r.lo))
				cw.fails = 0
				mu.Lock()
				if err := c.journalShard(key, rec); err != nil && journErr == nil {
					journErr = err
				}
				recs = append(recs, rec)
				remaining--
				if remaining == 0 {
					close(work) // all ranges computed: release the pool
				}
				mu.Unlock()
				feed.advance((r.hi - r.lo) * cells)
			}
		}(&coordWorker{url: u})
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if journErr != nil {
		return nil, journErr
	}
	if remaining > 0 {
		if err, _ := lastErr.Load().(error); err != nil {
			return nil, fmt.Errorf("serve: %d shard(s) unassigned, all %d workers failed; last: %w", remaining, len(c.urls), err)
		}
		return nil, fmt.Errorf("serve: %d shard(s) unassigned: %w", remaining, ctx.Err())
	}
	return recs, nil
}

// callShard asks one worker for one trial range and validates the reply
// against the canonical shard key. A reply longer than c.replyLimit is an
// error, read no further than one byte past the bound.
func (c *coordinator) callShard(ctx context.Context, workerURL, key string, req *serialize.RequestRecord, r trialRange) (*serialize.ShardRecord, error) {
	body, err := json.Marshal(&serialize.ShardRequest{Version: serialize.ShardVersion, Request: req, Lo: r.lo, Hi: r.hi})
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, workerURL+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if env, derr := serialize.DecodeError(resp.Body); derr == nil {
			return nil, fmt.Errorf("%s: %s", env.Error.Code, env.Error.Message)
		}
		return nil, fmt.Errorf("http %d", resp.StatusCode)
	}
	reply := &io.LimitedReader{R: resp.Body, N: c.replyLimit + 1}
	rec, err := serialize.DecodeShard(reply)
	if reply.N == 0 {
		return nil, fmt.Errorf("shard reply exceeds %d bytes", c.replyLimit)
	}
	if err != nil {
		return nil, err
	}
	if err := rec.Validate(key, req.Trials); err != nil {
		return nil, err
	}
	return rec, nil
}

// --- shard journal -------------------------------------------------------

// jobDir returns the journal directory of one request key ("" when
// checkpointing is disabled).
func (c *coordinator) jobDir(key string) string {
	if c.dir == "" {
		return ""
	}
	return filepath.Join(c.dir, key)
}

// writeAtomic writes data to path via a uniquely named temp file in the
// same directory, synced before it is renamed over path and followed by a
// sync of the directory, so the journal never holds a torn record, even
// across a crash. On any error the temp file is removed.
func writeAtomic(path string, data []byte) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("journal %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			_ = f.Close() // already closed on the paths past Close; harmless
			_ = os.Remove(f.Name())
			err = fmt.Errorf("journal %s: %w", path, err)
		}
	}()
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if _, err = f.Write(data); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// journalShard checkpoints one completed shard under the job's directory.
func (c *coordinator) journalShard(key string, rec *serialize.ShardRecord) error {
	dir := c.jobDir(key)
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := serialize.EncodeShard(&buf, rec); err != nil {
		return err
	}
	return writeAtomic(filepath.Join(dir, fmt.Sprintf("shard-%06d-%06d.json", rec.Lo, rec.Hi)), buf.Bytes())
}

// journalRequest records the normalized request driving a job, both for
// startup resume and for debugging a checkpoint by hand. Best-effort: a
// failed write only disables resume, never the job.
func (c *coordinator) journalRequest(key string, req *serialize.RequestRecord) {
	dir := c.jobDir(key)
	if dir == "" {
		return
	}
	path := filepath.Join(dir, "request.json")
	if _, err := os.Stat(path); err == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	if data, err := json.MarshalIndent(req, "", "  "); err == nil {
		_ = writeAtomic(path, data)
	}
}

// journalResult marks a job's checkpoint finished (startup resume skips
// it) and records the merged envelope. Best-effort.
func (c *coordinator) journalResult(key string, env *serialize.ResultEnvelope) {
	dir := c.jobDir(key)
	if dir == "" {
		return
	}
	var buf bytes.Buffer
	if err := serialize.EncodeEnvelope(&buf, env); err != nil {
		return
	}
	_ = writeAtomic(filepath.Join(dir, "result.json"), buf.Bytes())
}

// loadJournal returns the valid journalled shards of a request key.
// Unreadable or mismatched files are skipped — their ranges simply
// recompute.
func (c *coordinator) loadJournal(key string, req *serialize.RequestRecord) ([]*serialize.ShardRecord, error) {
	dir := c.jobDir(key)
	if dir == "" {
		return nil, nil
	}
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*.json"))
	if err != nil {
		return nil, err
	}
	var out []*serialize.ShardRecord
	for _, path := range matches {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		rec, err := serialize.DecodeShard(f)
		f.Close()
		if err != nil || rec.Validate(key, req.Trials) != nil {
			continue
		}
		out = append(out, rec)
	}
	return out, nil
}

// resumePending re-enqueues unfinished journalled jobs (request.json
// without result.json) found at startup, so a coordinator killed mid-job
// picks its checkpoints back up without waiting for a client to resubmit.
func (c *coordinator) resumePending() {
	if c.dir == "" {
		return
	}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(c.dir, e.Name())
		if _, err := os.Stat(filepath.Join(dir, "result.json")); err == nil {
			continue // finished before the restart
		}
		f, err := os.Open(filepath.Join(dir, "request.json"))
		if err != nil {
			continue
		}
		req, err := serialize.DecodeRequest(f)
		f.Close()
		if err != nil {
			continue
		}
		norm, err := c.s.normalize(req)
		if err != nil {
			continue
		}
		key, err := norm.CanonicalKey()
		if err != nil || key != e.Name() {
			continue // journal directory does not match its request
		}
		c.s.enqueueResume(key, norm)
	}
}

// enqueueResume admits one journalled request as a fresh job (used only at
// startup, before the listener is up).
func (s *Server) enqueueResume(key string, req *serialize.RequestRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.inflight[key] != nil {
		return
	}
	if _, ok := s.cache.get(key); ok {
		return
	}
	s.nextSeq++
	j := &job{
		id:        fmt.Sprintf("job-%d", s.nextSeq),
		seq:       s.nextSeq,
		key:       key,
		req:       req,
		status:    serialize.JobQueued,
		submitted: nowMS(),
		feed:      newFeedFor(req),
		done:      make(chan struct{}),
	}
	select {
	case s.queued <- j:
	default:
		s.nextSeq--
		return
	}
	s.inflight[key] = j
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
}
