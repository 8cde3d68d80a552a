package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"swim/internal/serialize"
)

// sseFrame is one parsed frame off an SSE stream; comment frames (heartbeats)
// carry only the comment flag.
type sseFrame struct {
	event   string
	id      string
	data    string
	comment bool
}

// sseStream wraps one open /v1/jobs/{id}/events connection with a background
// frame reader, so tests can wait for frames with a deadline.
type sseStream struct {
	cancel context.CancelFunc
	frames chan sseFrame
	errs   chan error
}

func openSSE(t *testing.T, baseURL, id string) *sseStream {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		t.Fatalf("events stream: http %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		cancel()
		t.Fatalf("events Content-Type = %q, want text/event-stream", ct)
	}
	s := &sseStream{cancel: cancel, frames: make(chan sseFrame), errs: make(chan error, 1)}
	go func() {
		defer resp.Body.Close()
		r := bufio.NewReader(resp.Body)
		for {
			f, err := readSSEFrame(r)
			if err != nil {
				s.errs <- err
				return
			}
			s.frames <- *f
		}
	}()
	t.Cleanup(cancel)
	return s
}

// readSSEFrame reads one blank-line-terminated frame.
func readSSEFrame(r *bufio.Reader) (*sseFrame, error) {
	f := &sseFrame{}
	seen := false
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			if seen {
				return f, nil
			}
			continue
		}
		seen = true
		switch {
		case strings.HasPrefix(line, "event: "):
			f.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			f.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			f.data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, ":"):
			f.comment = true
		}
	}
}

// next waits for the stream's next non-comment frame.
func (s *sseStream) next(t *testing.T) sseFrame {
	t.Helper()
	for {
		select {
		case f := <-s.frames:
			if f.comment {
				continue
			}
			return f
		case err := <-s.errs:
			t.Fatalf("stream ended early: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for SSE frame")
		}
	}
}

// expectEOF waits for the background reader to hit end-of-stream.
func (s *sseStream) expectEOF(t *testing.T) {
	t.Helper()
	for {
		select {
		case f := <-s.frames:
			if f.comment {
				continue
			}
			t.Fatalf("unexpected frame after terminal event: %+v", f)
		case <-s.errs:
			return // io.EOF or the connection closing both mean the stream ended
		case <-time.After(10 * time.Second):
			t.Fatal("stream did not close after terminal event")
		}
	}
}

func decodeEvent(t *testing.T, f sseFrame) serialize.ProgressEvent {
	t.Helper()
	var ev serialize.ProgressEvent
	if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
		t.Fatalf("frame data %q: %v", f.data, err)
	}
	return ev
}

// insertFakeJob registers a hand-driven running job so SSE mechanics can be
// tested without executing a workload.
func insertFakeJob(s *Server, id string, feed *progressFeed) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSeq++
	j := &job{
		id: id, seq: s.nextSeq, key: "fake-" + id,
		status: serialize.JobRunning, submitted: nowMS(), started: nowMS(),
		feed: feed, done: make(chan struct{}),
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j
}

func TestCellCount(t *testing.T) {
	req := testRequest(1, "")
	norm := &serialize.RequestRecord{
		Sigmas: req.Sigmas, Scenarios: "none", Times: req.Times, Policies: req.Policies,
	}
	if got := cellCount(norm); got != 2 { // 1 sigma × 1 scenario × 1 time × 2 policies
		t.Fatalf("cellCount = %d, want 2", got)
	}
	norm.Scenarios = "drift:tau=1;read_noise:sigma=0.1"
	norm.Sigmas = []float64{1, 2}
	if got := cellCount(norm); got != 8 {
		t.Fatalf("cellCount = %d, want 8", got)
	}
}

// TestSSELiveFollow subscribes before any event exists and follows granule
// advancement through the terminal done event.
func TestSSELiveFollow(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	feed := newProgressFeed(10, 2)
	insertFakeJob(s, "job-live", feed)

	st := openSSE(t, ts.URL, "job-live")
	feed.advance(5)
	f := st.next(t)
	if f.event != serialize.EventGranule || f.id != "0" {
		t.Fatalf("first frame = %+v, want granule seq 0", f)
	}
	ev := decodeEvent(t, f)
	if ev.TrialsDone != 5 || ev.TrialsTotal != 10 || ev.Granule != 1 || ev.GranulesTotal != 2 {
		t.Fatalf("event counters = %+v", ev)
	}
	feed.advance(5)
	ev = decodeEvent(t, st.next(t))
	if ev.TrialsDone != 10 || ev.Granule != 2 {
		t.Fatalf("second event counters = %+v", ev)
	}
	feed.finish(serialize.JobDone)
	f = st.next(t)
	if f.event != serialize.EventDone {
		t.Fatalf("terminal frame = %+v, want done", f)
	}
	if ev := decodeEvent(t, f); ev.Status != serialize.JobDone || ev.TrialsDone != 10 {
		t.Fatalf("terminal event = %+v", ev)
	}
	st.expectEOF(t)
}

// TestSSEReplayMidJob subscribes after events already accumulated: the full
// log replays from seq 0, then the stream follows live.
func TestSSEReplayMidJob(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	feed := newProgressFeed(6, 3)
	insertFakeJob(s, "job-replay", feed)
	feed.advance(2)
	feed.advance(2)

	st := openSSE(t, ts.URL, "job-replay")
	for i := 0; i < 2; i++ {
		ev := decodeEvent(t, st.next(t))
		if ev.Seq != i || ev.TrialsDone != 2*(i+1) {
			t.Fatalf("replayed event %d = %+v", i, ev)
		}
	}
	feed.advance(2)
	if ev := decodeEvent(t, st.next(t)); ev.Seq != 2 || ev.TrialsDone != 6 {
		t.Fatalf("live event = %+v", ev)
	}
	feed.finish(serialize.JobFailed)
	f := st.next(t)
	if f.event != serialize.EventDone {
		t.Fatalf("terminal frame = %+v", f)
	}
	if ev := decodeEvent(t, f); ev.Status != serialize.JobFailed || ev.TrialsDone != 6 {
		t.Fatalf("failed terminal event = %+v (failure must not snap counters)", ev)
	}
	st.expectEOF(t)
}

// TestSSEClientDisconnect drops the client mid-stream; the handler must
// notice and release its slot (the connected-streams gauge returns to zero).
func TestSSEClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	feed := newProgressFeed(4, 1)
	insertFakeJob(s, "job-drop", feed)

	st := openSSE(t, ts.URL, "job-drop")
	feed.advance(2)
	st.next(t)
	if got := s.met.sseClients.Load(); got != 1 {
		t.Fatalf("sse_clients = %d with one open stream", got)
	}
	st.cancel()
	deadline := time.Now().Add(10 * time.Second)
	for s.met.sseClients.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler did not release the stream after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	feed.finish(serialize.JobCancelled)
}

// TestSSEShutdownClosesStreams cancels the daemon lifecycle context (the
// hard-drain path): every open stream must end even though its job never
// reached a terminal event.
func TestSSEShutdownClosesStreams(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	feed := newProgressFeed(4, 1)
	insertFakeJob(s, "job-shutdown", feed)

	st := openSSE(t, ts.URL, "job-shutdown")
	feed.advance(1)
	st.next(t)
	s.cancelAll()
	st.expectEOF(t)
}

// TestSSEHeartbeat shrinks the heartbeat interval and asserts idle comment
// frames flow while no events fire.
func TestSSEHeartbeat(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.sseHeartbeat = 20 * time.Millisecond
	feed := newProgressFeed(4, 1)
	insertFakeJob(s, "job-idle", feed)

	st := openSSE(t, ts.URL, "job-idle")
	select {
	case f := <-st.frames:
		if !f.comment {
			t.Fatalf("expected heartbeat comment, got %+v", f)
		}
	case err := <-st.errs:
		t.Fatalf("stream ended: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no heartbeat within deadline")
	}
	feed.finish(serialize.JobDone)
}

func TestSSEUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events: http %d, want 404", resp.StatusCode)
	}
}

// TestSSEJobIntegration runs a real job and checks the replayed stream and
// the job record's progress block agree with the request's trial space.
func TestSSEJobIntegration(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rec, _ := submit(t, ts, testRequest(31, ""))
	final := await(t, ts, rec.ID)
	if final.Status != serialize.JobDone {
		t.Fatalf("job finished %s: %s", final.Status, final.Error)
	}
	// 5 trials × (1 sigma × 1 scenario × 1 time × 2 policies) = 10 units.
	if final.Progress == nil {
		t.Fatal("terminal job record carries no progress block")
	}
	if final.Progress.TrialsDone != 10 || final.Progress.TrialsTotal != 10 ||
		final.Progress.Granule != 2 || final.Progress.GranulesTotal != 2 {
		t.Fatalf("terminal progress = %+v", final.Progress)
	}

	st := openSSE(t, ts.URL, rec.ID)
	last, prev := serialize.ProgressEvent{}, -1
	seq := 0
	for {
		f := st.next(t)
		ev := decodeEvent(t, f)
		if ev.Seq != seq {
			t.Fatalf("replay gap: seq %d, want %d", ev.Seq, seq)
		}
		if ev.TrialsDone < prev {
			t.Fatalf("trials_done regressed: %d after %d", ev.TrialsDone, prev)
		}
		prev = ev.TrialsDone
		seq++
		last = ev
		if f.event == serialize.EventDone {
			break
		}
	}
	if last.Status != serialize.JobDone || last.TrialsDone != 10 || last.Granule != 2 {
		t.Fatalf("terminal replay event = %+v", last)
	}
	st.expectEOF(t)

	// A cache-hit resubmission replays a pre-sealed stream immediately.
	rec2, code := submit(t, ts, testRequest(31, ""))
	if code != http.StatusOK || !rec2.Cached {
		t.Fatalf("resubmit: code %d cached %v", code, rec2.Cached)
	}
	st2 := openSSE(t, ts.URL, rec2.ID)
	f := st2.next(t)
	if f.event != serialize.EventDone {
		t.Fatalf("cached job first frame = %+v, want done", f)
	}
	if ev := decodeEvent(t, f); ev.TrialsDone != 10 || ev.TrialsTotal != 10 {
		t.Fatalf("cached terminal event = %+v", ev)
	}
	st2.expectEOF(t)
}

// TestSSEStandaloneTrialFrames pins the standalone feed's frame sequence
// with two engine workers racing: the job's share credits every trial, so
// the replay holds one progress frame per trial in counting order and one
// granule frame as each cell's last trial lands.
func TestSSEStandaloneTrialFrames(t *testing.T) {
	_, ts := newTestServer(t, Config{TotalWorkers: 2})
	rec, _ := submit(t, ts, testRequest(37, "")) // 2 cells × 5 trials
	if final := await(t, ts, rec.ID); final.Status != serialize.JobDone {
		t.Fatalf("job finished %s: %s", final.Status, final.Error)
	}
	st := openSSE(t, ts.URL, rec.ID)
	var progress, granules []int
	for {
		f := st.next(t)
		ev := decodeEvent(t, f)
		switch f.event {
		case serialize.EventProgress:
			progress = append(progress, ev.TrialsDone)
		case serialize.EventGranule:
			if ev.Granule != len(granules)+1 {
				t.Fatalf("granule frame %+v, want granule %d", ev, len(granules)+1)
			}
			granules = append(granules, ev.TrialsDone)
		}
		if f.event == serialize.EventDone {
			break
		}
	}
	st.expectEOF(t)
	if fmt.Sprint(progress) != "[1 2 3 4 5 6 7 8 9 10]" {
		t.Fatalf("progress frames read trials_done %v, want 1…10", progress)
	}
	if fmt.Sprint(granules) != "[5 10]" {
		t.Fatalf("granule frames read trials_done %v, want [5 10]", granules)
	}
}

// A standalone job runs each scenario's cells as one group, whose trials
// the engine reports once; the share still credits every cell's trial, so
// swim_mc_trials_total and the progress frames read cells × trials before
// the done event snaps anything — here 2 read times × 3 policies (random
// setting up alone) × 3 trials.
func TestGroupTrialsCountedPerCell(t *testing.T) {
	s, ts := newTestServer(t, Config{TotalWorkers: 2})
	req := testRequest(43, "")
	req.Times, req.Policies, req.Trials = []float64{0, 3600}, []string{"noverify", "swim", "random"}, 3
	rec, _ := submit(t, ts, req)
	if final := await(t, ts, rec.ID); final.Status != serialize.JobDone {
		t.Fatalf("job finished %s: %s", final.Status, final.Error)
	}
	if n := s.met.trials.Load(); n != 18 {
		t.Fatalf("swim_mc_trials_total = %d, want 18", n)
	}
	st := openSSE(t, ts.URL, rec.ID)
	var last serialize.ProgressEvent
	for {
		f := st.next(t)
		if f.event == serialize.EventDone {
			break
		}
		last = decodeEvent(t, f)
	}
	st.expectEOF(t)
	if last.TrialsDone != 18 || last.TrialsTotal != 18 || last.Granule != 6 {
		t.Fatalf("last frame before done = %+v, want 18 of 18 trials, granule 6", last)
	}
}
