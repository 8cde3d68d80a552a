package serve

// Job-progress streaming: every job owns a progressFeed — an append-only
// event log fed out-of-band by the job's fair-share Share, which sees every
// trial complete (standalone mode), or by the coordinator's shard
// accounting (distributed mode). The feed backs both the progress block in
// GET /v1/jobs/{id} and the SSE stream on GET /v1/jobs/{id}/events, which
// replays the log from the start for late subscribers and then follows it
// live until the terminal done event.
//
// Progress is measured in trial-execution units: a job's trial space is
// req.Trials × cells, where cells is the scenario × read-time × policy ×
// sigma cross product (each cell runs every trial; a group trial counts
// once per cell). Granules are req.Trials cell-trials each in standalone
// mode and shards under a coordinator. The feed is strictly a consumer of
// observe-only callbacks — it can never influence trial order, RNG
// streams, or result bytes (see mc.Observer).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"swim/internal/serialize"
)

// serverSSEHeartbeat is the idle-comment interval on
// /v1/jobs/{id}/events streams, which keeps them alive through proxies
// between events.
const serverSSEHeartbeat = 15 * time.Second

// cellCount returns how many pipeline cells a normalized request expands
// into. normalize guarantees every axis is non-empty (Scenarios is "none" or
// a ';'-joined list), so the product is always ≥ 1.
func cellCount(req *serialize.RequestRecord) int {
	scenarios := strings.Count(req.Scenarios, ";") + 1
	return len(req.Sigmas) * scenarios * len(req.Times) * len(req.Policies)
}

// progressFeed is one job's append-only progress-event log plus the running
// counters behind it. Safe for concurrent use; the server mutex may be held
// while calling into it (lock order: server mutex → feed mutex, never the
// reverse).
type progressFeed struct {
	mu      sync.Mutex
	events  []serialize.ProgressEvent
	changed chan struct{} // closed and replaced on every append
	closed  bool          // terminal event emitted; the log is final

	trialsTotal   int
	granulesTotal int
	trialsDone    int
	granule       int // completed granules
}

// newProgressFeed builds a feed for a job spanning trialsTotal trial
// executions across granulesTotal granules.
func newProgressFeed(trialsTotal, granulesTotal int) *progressFeed {
	return &progressFeed{
		trialsTotal:   trialsTotal,
		granulesTotal: granulesTotal,
		changed:       make(chan struct{}),
	}
}

// newFeedFor sizes a feed from a normalized request: cells × trials units,
// one granule per cell (the coordinator re-plans granules as shards via
// setPlan once it knows the shard split).
func newFeedFor(req *serialize.RequestRecord) *progressFeed {
	cells := cellCount(req)
	return newProgressFeed(req.Trials*cells, cells)
}

// emitLocked appends one event snapshotting the current counters and wakes
// the streams. Call with f.mu held.
func (f *progressFeed) emitLocked(typ, status string) {
	f.events = append(f.events, serialize.ProgressEvent{
		Seq:           len(f.events),
		Type:          typ,
		Status:        status,
		TrialsDone:    f.trialsDone,
		TrialsTotal:   f.trialsTotal,
		Granule:       f.granule,
		GranulesTotal: f.granulesTotal,
	})
	close(f.changed)
	f.changed = make(chan struct{})
}

// trial credits one completed cell-trial of a standalone job; the job's
// Share calls it from the engine's TrialDone, once per cell of each group
// trial. It emits one progress event per cell-trial and a granule event
// every trialsTotal ÷ granulesTotal (the request's trials, from
// newFeedFor) cell-trials. A scenario's cells run as one group, each trial
// covering all of them, so a granule frame counts that many cell-trials of
// progress; it no longer marks one cell's completion.
func (f *progressFeed) trial() {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.trialsDone++
	f.emitLocked(serialize.EventProgress, "")
	if f.trialsDone%(f.trialsTotal/f.granulesTotal) == 0 {
		f.granule++
		f.emitLocked(serialize.EventGranule, "")
	}
}

// setPlan re-plans the feed's granule accounting for coordinator execution:
// granulesTotal shards, of which granulesDone (journalled before this run)
// already cover trialsDone trial executions. Emits one progress event so
// subscribers see the resumed baseline.
func (f *progressFeed) setPlan(granulesDone, granulesTotal, trialsDone int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.granule = granulesDone
	f.granulesTotal = granulesTotal
	f.trialsDone = trialsDone
	f.emitLocked(serialize.EventProgress, "")
}

// advance credits one completed coordinator shard spanning the given number
// of trial executions.
func (f *progressFeed) advance(trials int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.trialsDone += trials
	f.granule++
	f.emitLocked(serialize.EventGranule, "")
}

// finish emits the stream's terminal done event carrying the job's final
// status and seals the log. Idempotent. A successful job snaps the counters
// to their totals (cache/coalesce/journal-resume paths may have skipped
// intermediate events).
func (f *progressFeed) finish(status string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	if status == serialize.JobDone {
		f.trialsDone = f.trialsTotal
		f.granule = f.granulesTotal
	}
	f.emitLocked(serialize.EventDone, status)
	f.closed = true
}

// snapshot returns the feed's counters as the job-record progress block.
func (f *progressFeed) snapshot() *serialize.ProgressRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return &serialize.ProgressRecord{
		TrialsDone:    f.trialsDone,
		TrialsTotal:   f.trialsTotal,
		Granule:       f.granule,
		GranulesTotal: f.granulesTotal,
	}
}

// after returns a copy of the events from index i on, whether the log is
// sealed, and the channel signalling the next append. When sealed is true
// the returned slice completes the log.
func (f *progressFeed) after(i int) (tail []serialize.ProgressEvent, sealed bool, changed <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i < len(f.events) {
		tail = append(tail, f.events[i:]...)
	}
	return tail, f.closed, f.changed
}

// writeSSE renders one event as an SSE frame: event type, id (the sequence
// number, so clients can detect gaps) and the JSON payload.
func writeSSE(w io.Writer, ev *serialize.ProgressEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, data)
	return err
}

// handleEvents streams a job's progress events as Server-Sent Events. The
// full log replays from the start (late subscribers see every event), then
// the stream follows live appends, emits comment heartbeats while idle, and
// ends after the terminal done event — or when the client disconnects or
// the daemon shuts down. Terminal jobs replay instantly and close.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, serialize.ErrNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, serialize.ErrInternal, "streaming unsupported by this connection")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	s.met.sseClients.Add(1)
	defer s.met.sseClients.Add(-1)

	ticker := time.NewTicker(s.sseHeartbeat)
	defer ticker.Stop()
	next := 0
	for {
		tail, sealed, changed := j.feed.after(next)
		for i := range tail {
			if err := writeSSE(w, &tail[i]); err != nil {
				return // client went away
			}
		}
		if len(tail) > 0 {
			next += len(tail)
			flusher.Flush()
		}
		if sealed {
			return
		}
		select {
		case <-changed:
		case <-ticker.C:
			if _, err := io.WriteString(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			return
		}
	}
}
