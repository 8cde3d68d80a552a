package main

// The traced replay re-executes a job's trials from outside the program
// package, through the layers' public functions, with a span around each
// call. It follows program.Pipeline's trial bodies step for step — the
// setupTrial stream order, then the grid walk or the Algorithm 1 loop — on
// the same pre-split trial streams (mc.MapCtx splits them exactly like the
// pipeline's engine), so its folded results must equal the measured run's
// bit for bit. A replay that drifts from program fails that comparison.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"swim/internal/calib"
	"swim/internal/eval"
	"swim/internal/experiments"
	"swim/internal/kernel"
	"swim/internal/mapping"
	"swim/internal/mc"
	"swim/internal/nn"
	"swim/internal/nonideal"
	"swim/internal/program"
	"swim/internal/rng"
	"swim/internal/stat"
	"swim/internal/swim"
	"swim/internal/tensor"
)

// cellSpec is one pipeline run of a job as the replay re-executes it: the
// inputs program.Pipeline derives from the options the job used.
type cellSpec struct {
	id       string
	policy   string
	sigma    float64
	scenario string // canonical nonideality spec, for the envelope
	evalX    *tensor.Tensor
	evalY    []int
	seed     uint64
	trials   int
	table    []float64 // nil: derived from the seed as program.Pipeline does
	models   []nonideal.Nonideality
	readTime float64
	calib    *calib.Model
	grid     []float64 // grid-budget targets; nil selects the drop budget
	drop     program.DropTarget
	gran     float64
}

// The stages of one trial, in the order a trial first reaches them. Each
// is timed as a span; eval.accuracy excludes the kernel time inside it.
const (
	stRank = iota
	stNew
	stNonideal
	stCalib
	stSpend
	stSync
	stAccuracy
	numStages
)

var stageNames = [numStages]string{
	"program.rank", "mapping.new", "mapping.nonideal", "mapping.calib",
	"program.spend", "mapping.sync", "eval.accuracy",
}

// trialStats is what one traced trial measured.
type trialStats struct {
	dur          time.Duration
	stages       [numStages]time.Duration
	conv, linear time.Duration
	otherKernel  time.Duration // matmul and im2col primitives
	kernelCalls  int
	evals        int
	samples      int
	cycles       float64
	verified     int
}

func (s *trialStats) add(o trialStats) {
	s.dur += o.dur
	for i := range s.stages {
		s.stages[i] += o.stages[i]
	}
	s.conv += o.conv
	s.linear += o.linear
	s.otherKernel += o.otherKernel
	s.kernelCalls += o.kernelCalls
	s.evals += o.evals
	s.samples += o.samples
	s.cycles += o.cycles
	s.verified += o.verified
}

// dropOut is one trial's Algorithm 1 outcome, as program's runDrop keeps it.
type dropOut struct {
	accs, nwcs, fracs []float64
	achieved          bool
}

// trialOut is what a replayed trial returns through mc.MapCtx.
type trialOut struct {
	row   []float64 // grid budget: accuracy, NWC, cycles per target
	drop  dropOut   // drop budget
	st    trialStats
	spans []span
}

// replayer re-executes cells and accumulates their per-layer totals.
type replayer struct {
	w    *experiments.Workload
	tr   *tracer
	macs float64 // multiply-accumulates per evaluated sample

	trials int
	sum    trialStats
	durs   []float64     // trial wall times, seconds
	wall   time.Duration // Σ cell wall
}

func newReplayer(w *experiments.Workload, tr *tracer) *replayer {
	return &replayer{w: w, tr: tr, macs: macsPerSample(w.Net)}
}

// macsPerSample counts the multiply-accumulates one sample's forward pass
// performs in the network's mapped matrices.
func macsPerSample(net *nn.Network) float64 {
	total := 0.0
	for _, op := range eval.MatVecOps(net) {
		total += float64(op.In) * float64(op.Out) * float64(op.PerSample)
	}
	return total
}

// run replays cells one after another, as a job runs its pipelines.
func (rp *replayer) run(ctx context.Context, cells []cellSpec) ([]*program.Result, error) {
	out := make([]*program.Result, 0, len(cells))
	for _, c := range cells {
		res, err := rp.cell(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", c.id, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// cell replays one pipeline run on workers goroutines and folds its trials
// into a program.Result the way Pipeline.Run does.
func (rp *replayer) cell(ctx context.Context, c cellSpec) (*program.Result, error) {
	pol, err := program.Lookup(c.policy)
	if err != nil {
		return nil, err
	}
	w := rp.w
	dev := w.DeviceFor(c.sigma)
	env := &program.Env{
		Net: w.Net, Device: dev, Hess: w.Hess, Weights: w.Weights,
		TrainX: w.DS.TrainX, TrainY: w.DS.TrainY, InSitu: swim.DefaultInSitu(),
	}
	start := time.Now()
	table := c.table
	if table == nil {
		rp.tr.timed("program.prepare", func() { table = dev.CycleTable(300, rng.New(c.seed^0x5eed)) })
	}
	var arenas sync.Pool
	lanes := make(chan int, workers)
	for l := 1; l <= workers; l++ {
		lanes <- l
	}
	outs, err := mc.MapCtx(ctx, c.seed, c.trials, workers, func(i int, r *rng.Source) trialOut {
		lane := <-lanes
		defer func() { lanes <- lane }()
		t := &trialRec{cell: c.id, trial: i, lane: lane, tr: rp.tr, tk: &timedKernel{inner: kernel.Default()}}
		return t.run(ctx, c, pol, env, table, &arenas, r)
	})
	wall := time.Since(start)
	rp.tr.add(span{name: "cell", cell: c.id, trial: -1, start: rp.tr.at(start), dur: wall})
	if err != nil {
		return nil, err
	}
	rp.wall += wall
	for _, o := range outs {
		rp.trials++
		rp.sum.add(o.st)
		rp.durs = append(rp.durs, o.st.dur.Seconds())
		rp.tr.add(o.spans...)
	}
	res := &program.Result{
		Policy: pol.Name(), Trials: c.trials, Nonidealities: nonideal.Names(c.models),
		ReadTime: c.readTime, Calibration: calibSpec(c.calib),
	}
	if c.grid != nil {
		return gridResult(res, c.grid, outs)
	}
	return dropResult(res, c.drop, outs), nil
}

func calibSpec(m *calib.Model) string {
	if m == nil {
		return ""
	}
	return m.Spec()
}

// gridResult folds grid rows in trial order through the engine's reduction.
func gridResult(res *program.Result, targets []float64, outs []trialOut) (*program.Result, error) {
	points := len(targets)
	rows := make([][]float64, len(outs))
	for i, o := range outs {
		rows[i] = o.row
	}
	agg, err := mc.FoldSeriesRows(3*points, rows)
	if err != nil {
		return nil, err
	}
	res.Budget = program.GridBudget(targets...)
	for i, target := range targets {
		res.Points = append(res.Points, program.Point{
			Target: target, Accuracy: agg[i], NWC: agg[points+i], Cycles: agg[2*points+i],
		})
	}
	return res, nil
}

// dropResult folds Algorithm 1 outcomes in trial order, as runDrop does.
func dropResult(res *program.Result, b program.DropTarget, outs []trialOut) *program.Result {
	res.Budget = b
	res.NWC, res.Evals = &stat.Welford{}, &stat.Welford{}
	for _, out := range outs {
		o := out.drop
		for i := range o.accs {
			if i == len(res.Trace) {
				res.Trace = append(res.Trace, program.TraceStep{
					FractionVerified: o.fracs[i], Accuracy: &stat.Welford{}, NWC: &stat.Welford{},
				})
			}
			res.Trace[i].Accuracy.MergeObs(o.accs[i])
			res.Trace[i].NWC.MergeObs(o.nwcs[i])
		}
		res.NWC.MergeObs(o.nwcs[len(o.nwcs)-1])
		res.Evals.MergeObs(float64(len(o.accs)))
		if o.achieved {
			res.Achieved++
		}
	}
	return res
}

// trialRec records one trial's spans and stage totals.
type trialRec struct {
	cell  string
	trial int
	lane  int
	tr    *tracer
	tk    *timedKernel
	st    trialStats
	spans []span
}

// stage times f as stage s of the trial.
func (t *trialRec) stage(s int, f func()) {
	start := time.Now()
	f()
	d := time.Since(start)
	t.st.stages[s] += d
	t.spans = append(t.spans, span{name: stageNames[s], cell: t.cell, trial: t.trial, lane: t.lane, start: t.tr.at(start), dur: d})
}

// accuracy syncs the read-out explicitly, then measures accuracy, keeping
// the kernel time inside the measurement apart from the evaluator's own.
func (t *trialRec) accuracy(mp *mapping.Mapped, x *tensor.Tensor, y []int) float64 {
	t.stage(stSync, mp.SyncRead)
	k0, c0 := t.tk.total(), t.tk.calls
	start := time.Now()
	acc := mp.Accuracy(x, y, evalBatch)
	d := time.Since(start)
	kd := t.tk.total() - k0
	t.st.stages[stAccuracy] += d - kd
	t.st.evals++
	t.st.samples += len(y)
	t.spans = append(t.spans, span{
		name: stageNames[stAccuracy], cell: t.cell, trial: t.trial, lane: t.lane,
		start: t.tr.at(start), dur: d, kernelDur: kd, kernelCalls: t.tk.calls - c0,
	})
	return acc
}

// run executes one trial: program's setupTrial, then the budget walk.
// Errors panic, as in the pipeline; mc.MapCtx turns them into its error.
func (t *trialRec) run(ctx context.Context, c cellSpec, pol program.Policy, env *program.Env,
	table []float64, arenas *sync.Pool, r *rng.Source) trialOut {

	start := time.Now()
	var (
		trial program.Trial
		mp    *mapping.Mapped
		err   error
	)
	t.stage(stRank, func() { trial, err = pol.NewTrial(env, r) })
	if err != nil {
		panic(err)
	}
	t.stage(stNew, func() { mp, err = mapping.New(env.Net, env.Device, table, r) })
	if err != nil {
		panic(err)
	}
	t.stage(stNonideal, func() {
		if len(c.models) > 0 {
			mp.SetNonideal(nonideal.NewTrials(c.models, env.Device, r.Split()), c.readTime)
		}
	})
	t.stage(stCalib, func() {
		if c.calib != nil {
			mp.SetCalibration(c.calib.NewTrial(r.Split()))
		}
	})
	arena, _ := arenas.Get().(*tensor.Arena)
	if arena == nil {
		arena = tensor.NewArena()
	}
	mp.SetEvalArena(arena)
	mp.SetKernel(t.tk)

	var out trialOut
	if c.grid != nil {
		out.row = t.grid(mp, trial, c, r)
	} else {
		out.drop = t.drop(ctx, mp, trial, c, r)
	}
	arenas.Put(arena)

	t.st.cycles = mp.CyclesUsed
	for _, v := range mp.Verified {
		if v {
			t.st.verified++
		}
	}
	t.st.conv, t.st.linear, t.st.otherKernel = t.tk.conv, t.tk.linear, t.tk.matmul+t.tk.im2col
	t.st.kernelCalls = t.tk.calls
	t.st.dur = time.Since(start)
	t.spans = append(t.spans, span{name: "trial", cell: t.cell, trial: t.trial, lane: t.lane, start: t.tr.at(start), dur: t.st.dur})
	out.st, out.spans = t.st, t.spans
	return out
}

// grid walks the cumulative NWC targets, as program's gridTrial does.
func (t *trialRec) grid(mp *mapping.Mapped, trial program.Trial, c cellSpec, r *rng.Source) []float64 {
	points := len(c.grid)
	out := make([]float64, 3*points)
	for i, nwc := range c.grid {
		t.stage(stSpend, func() { trial.SpendTo(mp, nwc, r) })
		out[i] = t.accuracy(mp, c.evalX, c.evalY)
		out[points+i] = mp.NWC()
		out[2*points+i] = mp.CyclesUsed
	}
	return out
}

// drop runs Algorithm 1, as program's runDrop does. Every registered
// selector order covers all weights, so the verified fraction is the
// granule count over the weight count.
func (t *trialRec) drop(ctx context.Context, mp *mapping.Mapped, trial program.Trial, c cellSpec, r *rng.Source) dropOut {
	n := mp.TotalWeights()
	granule := int(math.Ceil(c.gran * float64(n)))
	if granule < 1 {
		granule = 1
	}
	var o dropOut
	record := func(done int) bool {
		acc := t.accuracy(mp, c.evalX, c.evalY)
		o.accs = append(o.accs, acc)
		o.nwcs = append(o.nwcs, mp.NWC())
		o.fracs = append(o.fracs, float64(done)/float64(n))
		return c.drop.BaseAccuracy-acc <= c.drop.MaxDrop
	}
	if record(0) {
		o.achieved = true
		return o
	}
	for done := 0; ctx.Err() == nil; {
		var exhausted bool
		t.stage(stSpend, func() { exhausted = trial.Step(mp, c.gran, r) })
		if done += granule; done > n {
			done = n
		}
		if record(done) {
			o.achieved = true
			break
		}
		if exhausted || (c.drop.MaxNWC > 0 && mp.NWC() >= c.drop.MaxNWC) {
			break
		}
	}
	return o
}

// metrics turns the replay's totals into per-trial layer metrics.
func (rp *replayer) metrics() map[string]float64 {
	n := float64(rp.trials)
	s := rp.sum
	per := func(d time.Duration) float64 { return d.Seconds() / n }
	m := map[string]float64{
		"program.evals":    float64(s.evals) / n,
		"eval.samples":     float64(s.samples) / n,
		"eval.macs":        float64(s.samples) * rp.macs / n,
		"device.cycles":    s.cycles / n,
		"mapping.verified": float64(s.verified) / n,
		"kernel.conv2d_s":  per(s.conv),
		"kernel.linear_s":  per(s.linear),
		"kernel.calls":     float64(s.kernelCalls) / n,
		"mc.busy_frac":     s.dur.Seconds() / (workers * rp.wall.Seconds()),
		"mc.trial_p50_s":   quantile(rp.durs, 0.5),
		"mc.trial_p90_s":   quantile(rp.durs, 0.9),
	}
	covered := s.conv + s.linear + s.otherKernel
	for i, name := range stageNames {
		m[name+"_s"] = per(s.stages[i])
		covered += s.stages[i]
	}
	m["trace.unattributed_frac"] = (s.dur - covered).Seconds() / s.dur.Seconds()
	return m
}
