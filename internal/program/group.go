package program

// Cell groups. A sweep compares policies on common device instances: its
// cells share one master seed, so in trial i every cell whose policy draws
// nothing before programming programs the same devices and reads the same
// untouched network (common random numbers). A group runs such cells as one
// Monte-Carlo run and does that shared work once per trial: one set-up
// (mapping.New, spatial field, nonideality and calibration instances) and
// one measurement of the untouched network for every cell that sees the
// same devices, then each cell's NWC grid from that state. Every cell's
// values are the bits its own pipeline computes alone.

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"

	"swim/internal/kernel"
	"swim/internal/mapping"
	"swim/internal/mc"
	"swim/internal/nonideal"
	"swim/internal/rng"
	"swim/internal/tensor"
)

// Group is a set of grid-budget pipelines — cells — run as one Monte-Carlo
// run over common device instances. Members must agree on everything a
// trial's set-up and measurement read: master network, device model, cycle
// table values, seed, trials, trial range, workers, worker gate, evaluation
// set (the same backing arrays) and batch, spatial field, nonideality specs
// and calibration spec. They may differ in policy, NWC grid, cost model and
// read time. A single pipeline's Run and RunShard are a group of one.
//
// Per trial, each cell mints its policy state from its own copy of the
// trial stream. Cells whose copy that leaves unchanged (every built-in
// policy but random) and whose read time matches share one set-up and one
// measurement of the untouched network; any other cell sets up alone from
// its advanced copy, as its pipeline would. Each cell then continues from
// its own copy of the post-set-up stream, so its values are the bits its
// own pipeline computes, at any worker count and trial range.
type Group []*Pipeline

// Test seams: newMapped programs a trial's device instance and evalKernel
// is the kernel backend its measurements run on (nil keeps
// kernel.Default()). Tests count set-ups and passes through them.
var (
	newMapped  = mapping.New
	evalKernel kernel.Backend
)

// snapshots pools the post-set-up snapshots cells restore from: a worker
// takes one only when a cell that may write runs before another cell of
// the same set-up, and returns it when the set-up's cells are done.
var snapshots sync.Pool

// Run executes every cell's configured trial range and folds each into the
// Result its pipeline's Run returns, in member order.
func (g Group) Run(ctx context.Context) ([]*Result, error) {
	shards, err := g.RunShards(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(shards))
	for k, sh := range shards {
		if out[k], err = sh.fold(sh.Rows, g[k].costModel); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunShards executes every cell's configured trial range and returns the
// Shard its pipeline's RunShard returns, in member order.
func (g Group) RunShards(ctx context.Context) ([]*Shard, error) {
	run, err := g.prepare()
	if err != nil {
		return nil, err
	}
	lead := g[0]
	lo, hi := 0, lead.trials
	if lead.ranged {
		lo, hi = lead.rangeLo, lead.rangeHi
	}
	gate := lead.gate
	if obs, ok := gate.(mc.Observer); ok && len(g) > 1 {
		gate = cellCredit{Gate: gate, obs: obs, cells: len(g)}
	}
	rows, err := mc.RunSeriesShard(ctx, lead.seed, lead.trials, lo, hi, run.width, lead.workers, gate, run.trial)
	if err != nil {
		return nil, fmt.Errorf("program: %s: %w", g.label(), err)
	}
	out := make([]*Shard, len(g))
	for k := range run.cells {
		c := &run.cells[k]
		end := c.off + 3*len(c.grid.Targets)
		cellRows := make([][]float64, len(rows))
		for t, row := range rows {
			cellRows[t] = row[c.off:end:end]
		}
		out[k] = c.p.shard(&c.env, c.grid, lo, hi, cellRows)
	}
	return out, nil
}

// label names the group's policies for error messages.
func (g Group) label() string {
	if len(g) == 1 {
		return fmt.Sprintf("policy %q", g[0].policy.Name())
	}
	names := make([]string, len(g))
	for k, p := range g {
		names[k] = fmt.Sprintf("%q", p.policy.Name())
	}
	return "policies " + strings.Join(names, ", ")
}

// groupCell is one member's run state.
type groupCell struct {
	p     *Pipeline
	env   Env // the member's per-run copy
	table []float64
	grid  NWCGrid
	off   int // where the cell's values start in a group row
}

// groupRun is a prepared group: the cells and the width of one trial's
// row, every cell's 3×len(Targets) values one after another.
type groupRun struct {
	cells []groupCell
	width int
}

// prepare checks that the members can share trials and derives each one's
// run environment as its own Run would.
func (g Group) prepare() (*groupRun, error) {
	if len(g) == 0 {
		return nil, fmt.Errorf("program: empty group")
	}
	run := &groupRun{cells: make([]groupCell, len(g))}
	var derived []float64 // the seed's cycle table, shared by members without one
	for k, p := range g {
		grid, ok := p.budget.(NWCGrid)
		if !ok {
			return nil, fmt.Errorf("program: a group runs grid budgets, got %T for policy %q", p.budget, p.policy.Name())
		}
		if err := sameTrials(g[0], p); err != nil {
			return nil, fmt.Errorf("program: policy %q cannot share trials with policy %q: %w", p.policy.Name(), g[0].policy.Name(), err)
		}
		c := &run.cells[k]
		c.p, c.env, c.grid, c.off = p, p.env, grid, run.width
		if err := p.prepare(&c.env); err != nil {
			return nil, err
		}
		c.table = p.cycleTable
		if c.table == nil {
			if derived == nil {
				derived = p.derivedTable()
			}
			c.table = derived
		}
		if !slices.Equal(c.table, run.cells[0].table) {
			return nil, fmt.Errorf("program: policy %q cannot share trials with policy %q: cycle tables differ", p.policy.Name(), g[0].policy.Name())
		}
		run.width += 3 * len(grid.Targets)
	}
	return run, nil
}

// sameTrials reports why two pipelines cannot run in one group: anything a
// trial's set-up or measurement reads must agree.
func sameTrials(a, b *Pipeline) error {
	switch {
	case a.env.Net != b.env.Net:
		return fmt.Errorf("master networks differ")
	case a.env.Device != b.env.Device:
		return fmt.Errorf("device models differ")
	case a.seed != b.seed || a.trials != b.trials:
		return fmt.Errorf("seed or trial count differs")
	case a.ranged != b.ranged || a.rangeLo != b.rangeLo || a.rangeHi != b.rangeHi:
		return fmt.Errorf("trial ranges differ")
	case a.workers != b.workers || !sameGate(a.gate, b.gate):
		return fmt.Errorf("workers or worker gates differ")
	case !sameSet(a, b):
		return fmt.Errorf("evaluation sets or batch sizes differ")
	case (a.spatial == nil) != (b.spatial == nil) || (a.spatial != nil && *a.spatial != *b.spatial):
		return fmt.Errorf("spatial fields differ")
	case !slices.Equal(nonideal.Names(a.nonideal), nonideal.Names(b.nonideal)):
		return fmt.Errorf("nonidealities differ")
	case a.calibSpec() != b.calibSpec():
		return fmt.Errorf("calibration models differ")
	}
	return nil
}

// sameSet reports whether two pipelines measure on the same backing arrays
// in the same batches.
func sameSet(a, b *Pipeline) bool {
	return a.evalBatch == b.evalBatch && slices.Equal(a.evalX.Shape, b.evalX.Shape) &&
		len(a.evalX.Data) == len(b.evalX.Data) && &a.evalX.Data[0] == &b.evalX.Data[0] &&
		len(a.evalY) == len(b.evalY) && &a.evalY[0] == &b.evalY[0]
}

// sameGate compares two gates without panicking on an incomparable one.
func sameGate(a, b mc.Gate) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if ta := reflect.TypeOf(a); ta != reflect.TypeOf(b) || !ta.Comparable() {
		return false
	}
	return a == b
}

// cellCredit credits each group trial to its gate's observer once per cell,
// so trial counters and job progress read cells × trials, as when every
// cell ran alone.
type cellCredit struct {
	mc.Gate
	obs   mc.Observer
	cells int
}

func (c cellCredit) TrialDone(t int) {
	for range c.cells {
		c.obs.TrialDone(t)
	}
}

func (c cellCredit) WorkerParked() { c.obs.WorkerParked() }
func (c cellCredit) WorkerWoke()   { c.obs.WorkerWoke() }

// readOnlyTrial marks a Trial whose SpendTo never changes the mapped state,
// so no cell after it needs a snapshot restored.
type readOnlyTrial interface{ readOnly() }

// trial runs one group trial from the trial's stream r and returns the
// group row. Errors panic, as in every trial body (the engine turns a panic
// into the run's error).
func (g *groupRun) trial(r *rng.Source) []float64 {
	out := make([]float64, g.width)
	streams := make([]rng.Source, len(g.cells))
	trials := make([]Trial, len(g.cells))
	var setups [][]int // member indices, by set-up
	for k := range g.cells {
		c := &g.cells[k]
		streams[k] = *r
		t, err := c.p.policy.NewTrial(&c.env, &streams[k])
		if err != nil {
			panic(err)
		}
		trials[k] = t
		setups = joinSetup(setups, k, streams[k] == *r, func(j int) bool {
			return streams[j] == *r && g.cells[j].p.readTime == c.p.readTime
		})
	}
	arena := borrowArena()
	defer arenas.Put(arena)
	for _, members := range setups {
		g.runSetup(members, streams, trials, arena, out)
	}
	return out
}

// joinSetup adds member k to the set-up it shares, or to one of its own
// when it shares none: a member whose stream is untouched joins the first
// set-up whose lead also has an untouched stream and the same read time
// (match).
func joinSetup(setups [][]int, k int, untouched bool, match func(j int) bool) [][]int {
	if untouched {
		for s, members := range setups {
			if match(members[0]) {
				setups[s] = append(members, k)
				return setups
			}
		}
	}
	return append(setups, []int{k})
}

// runSetup programs one device instance for members, which share it, and
// walks each member's NWC grid on it. Members run in reverse order, each
// from the post-set-up state: the state is saved before the first member
// that may write, provided another member runs after it, and restored
// before each later member.
func (g *groupRun) runSetup(members []int, streams []rng.Source, trials []Trial, arena *tensor.Arena, out []float64) {
	lead := &g.cells[members[0]]
	s := streams[members[0]]
	mp := lead.p.setup(&lead.env, lead.table, &s)
	mp.SetEvalArena(arena)
	mp.SetKernel(evalKernel)
	p := lead.p
	if len(members) > 1 && slices.ContainsFunc(members, func(k int) bool { return g.cells[k].grid.Targets[0] == 0 }) {
		// Measure the untouched network once, before any member writes:
		// a member whose state still equals it bit for bit reuses the count.
		mp.Accuracy(p.evalX, p.evalY, p.evalBatch)
	}
	var snap *mapping.Snapshot
	for j := len(members) - 1; j >= 0; j-- {
		k := members[j]
		if snap != nil {
			mp.Restore(snap)
		} else if _, ro := trials[k].(readOnlyTrial); j > 0 && !ro {
			snap, _ = snapshots.Get().(*mapping.Snapshot)
			if snap == nil {
				snap = new(mapping.Snapshot)
			}
			mp.Save(snap)
		}
		streams[k] = s
		c := &g.cells[k]
		points := len(c.grid.Targets)
		row := out[c.off : c.off+3*points]
		for i, nwc := range c.grid.Targets {
			trials[k].SpendTo(mp, nwc, &streams[k])
			row[i] = mp.Accuracy(p.evalX, p.evalY, p.evalBatch)
			row[points+i] = mp.NWC()
			row[2*points+i] = mp.CyclesUsed
		}
	}
	if snap != nil {
		snap.Reset()
		snapshots.Put(snap)
	}
}
