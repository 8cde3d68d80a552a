package mc

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"swim/internal/rng"
)

// obsGate wraps a Gate with Observer bookkeeping for tests.
type obsGate struct {
	Gate
	mu     sync.Mutex
	trials map[int]int
	parks  atomic.Int64
	wakes  atomic.Int64
}

func newObsGate(inner Gate) *obsGate {
	return &obsGate{Gate: inner, trials: make(map[int]int)}
}

func (g *obsGate) TrialDone(t int) {
	g.mu.Lock()
	g.trials[t]++
	g.mu.Unlock()
}

func (g *obsGate) WorkerParked() { g.parks.Add(1) }
func (g *obsGate) WorkerWoke()   { g.wakes.Add(1) }

// TestObserverEvents pins the Observer contract: every trial reports exactly
// one TrialDone before the run returns, parks balance wakes, and the
// observed run's aggregates are bit-identical to an unobserved serial run.
func TestObserverEvents(t *testing.T) {
	const trials = 25
	f := func(r *rng.Source) []float64 {
		return []float64{r.Norm(), r.Float64()}
	}
	serial, err := series(context.Background(), 91, trials, 2, 1, nil, f)
	if err != nil {
		t.Fatal(err)
	}
	g := newObsGate(newFlappyGate(4))
	observed, err := series(context.Background(), 91, trials, 2, 4, g, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Mean() != observed[i].Mean() || serial[i].Std() != observed[i].Std() {
			t.Fatalf("point %d: observed run diverged from serial", i)
		}
	}
	if len(g.trials) != trials {
		t.Fatalf("TrialDone covered %d distinct trials, want %d", len(g.trials), trials)
	}
	for tr, n := range g.trials {
		if n != 1 {
			t.Fatalf("trial %d reported done %d times, want 1", tr, n)
		}
	}
	if g.parks.Load() != g.wakes.Load() {
		t.Fatalf("parks (%d) != wakes (%d)", g.parks.Load(), g.wakes.Load())
	}
}

// TestObserverShardOffsets: TrialDone reports absolute trial indices even on
// a sub-range run, matching the coordinator's trial accounting.
func TestObserverShardOffsets(t *testing.T) {
	g := newObsGate(&fixedGate{limit: 2, ch: make(chan struct{})})
	_, err := RunSeriesShard(context.Background(), 7, 10, 4, 7, 1, 2, g,
		func(r *rng.Source) []float64 { return []float64{r.Float64()} })
	if err != nil {
		t.Fatal(err)
	}
	if len(g.trials) != 3 {
		t.Fatalf("shard [4,7) reported %d trials, want 3", len(g.trials))
	}
	for tr := 4; tr < 7; tr++ {
		if g.trials[tr] != 1 {
			t.Fatalf("absolute trial %d not reported exactly once: %v", tr, g.trials)
		}
	}
}
