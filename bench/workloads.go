package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swim/internal/calib"
	"swim/internal/data"
	"swim/internal/experiments"
	"swim/internal/mc"
	"swim/internal/nonideal"
	"swim/internal/program"
	"swim/internal/rng"
	"swim/internal/serialize"
	"swim/internal/serve"
	"swim/internal/stat"
)

const (
	workers   = 2  // Monte-Carlo workers, and serve-coord's client count
	evalBatch = 64 // accuracy-measurement batch size everywhere
	day       = 86400.0
)

// sizes fixes how much work each workload's jobs do. full is what
// BENCHMARK.json measures; the smoke test runs a tiny one.
type sizes struct {
	setups       int       // cold builds timed per run
	table1Trials int       // trials per Table 1 cell
	table1Sigmas []float64 // Table 1 σ grid
	algo1Trials  int       // trials per Algorithm 1 run
	coordTrials  int       // trials per serve-coord cell
	shapeTol     float64   // CheckTable1Shapes slack, percentage points
}

// full fits the whole benchmark, 4 + 22 runs of each workload, in under an
// hour on a 2-CPU machine running at two thirds of its usual speed. Table 1
// runs only σ = 0.5, the row its shape check reads; the other rows run the
// same code on another device σ.
var full = sizes{
	setups: 3, table1Trials: 4, table1Sigmas: []float64{experiments.SigmaTypical},
	algo1Trials: 64, coordTrials: 4, shapeTol: 5,
}

// workload is one fixed benchmark input: a model, a job shape, and the way
// jobs reach the program (a direct call, one daemon, or a coordinator).
type workload struct {
	name string
	why  string
	// model builds the trained model through the experiments registry;
	// calN is the calibration-split size its sensitivity pass uses.
	model func() *experiments.Workload
	calN  int
	// env is process environment the workload's jobs read.
	env map[string]string
	// measure runs jobs until the measured phase ends and checks them.
	measure func(ctx context.Context, w *experiments.Workload, cfg config) (*measured, error)
}

var workloads = []*workload{
	{
		name:    "table1-lenet",
		why:     "The paper's Table 1 on LeNet at sigma 0.5: eval-bound grid trials whose in-situ cells also drive nn training, so eval, kernel and training changes all show.",
		model:   experiments.LeNetMNIST,
		calN:    512,
		measure: measureTable1,
	},
	{
		name:    "algo1-lenet",
		why:     "Algorithm 1 drop-budget runs: ranking, programming, nonideal and calibration set-up and write-verify carry half the time; the only runDrop user.",
		model:   experiments.LeNetMNIST,
		calN:    512,
		measure: measureAlgo1,
	},
	{
		name:    "serve-coord",
		why:     "A closed loop of short LeNet jobs through a coordinator and two loopback workers, where HTTP, JSON, dispatch and merge cost is the largest share.",
		model:   experiments.LeNetMNIST,
		calN:    512,
		env:     map[string]string{"SWIM_EVAL": "64"},
		measure: measureCoord,
	},
}

func lookup(name string) (*workload, error) {
	var names []string
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
		names = append(names, wl.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// jobSeed is the Monte-Carlo seed of job i of a run with the given seed.
// Every job of a run gets its own, so served jobs never hit a cache.
func jobSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) + 1 }

// check is one output check; err is nil when it passed.
type check struct {
	name string
	err  error
}

// measured is what a workload's measured phase produced.
type measured struct {
	mu       sync.Mutex
	meter    *speedMeter
	jobs     []float64 // per-job latency, seconds
	refJobs  []float64 // per-job latency at the reference speed, seconds
	trials   int       // Monte-Carlo trials completed, one per trial of one cell
	elapsed  float64   // wall seconds of the measured phase
	slow     float64   // the machine's slowdown over the measured phase
	realtime bool      // the meter's threads ran at real-time priority
	rss      float64   // peak resident set of the measured phase, MiB
	endErr   error     // reading the meter or the resident set failed

	first  []byte // the first job's result bytes, hashed into result_digest
	checks []check
	info   map[string]float64 // serve-layer diagnostics

	// cells describes the first job's pipeline runs for the traced replay;
	// render encodes results the way first was encoded, so the replay's
	// bytes must equal first.
	cells  []cellSpec
	render func([]*program.Result) ([]byte, error)
}

// job records one job that began at start and has just completed.
func (m *measured) job(start time.Time, trials int) {
	end := time.Now()
	lat := end.Sub(start).Seconds()
	ref := lat / m.meter.slowdown(start, end)
	m.mu.Lock()
	m.jobs = append(m.jobs, lat)
	m.refJobs = append(m.refJobs, ref)
	m.trials += trials
	m.mu.Unlock()
}

// begin opens the measured phase.
func (m *measured) begin(ctx context.Context) (time.Time, error) {
	var err error
	m.meter, err = startSpeedMeter(ctx)
	return time.Now(), err
}

// end closes the measured phase that began at start: its wall time, the
// machine's slowdown over it, and the peak resident set since set-up, read
// before any output check runs.
func (m *measured) end(start time.Time) {
	now := time.Now()
	m.elapsed = now.Sub(start).Seconds()
	m.slow = m.meter.slowdown(start, now)
	var rssErr error
	m.rss, rssErr = peakRSSMB()
	m.realtime, m.endErr = m.meter.close()
	if m.endErr == nil {
		m.endErr = rssErr
	}
}

// loop runs job(0), job(1), ... one after another and ends the measured
// phase. It starts another job only while one more, as long as the last,
// would end nearer to seconds than stopping now, so a run measures about
// seconds whatever its job length.
func (m *measured) loop(ctx context.Context, seconds float64, job func(i int) error) error {
	start, err := m.begin(ctx)
	if err != nil {
		return err
	}
	defer m.end(start)
	for i := 0; ; i++ {
		began := time.Now()
		if err := job(i); err != nil {
			return err
		}
		if time.Since(start).Seconds()+time.Since(began).Seconds()/2 >= seconds {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// closedLoop runs clients goroutines that each submit a job, wait for it,
// and submit the next, until seconds have elapsed, then ends the measured
// phase; jobs are numbered in submission order. It returns the first job
// error.
func (m *measured) closedLoop(ctx context.Context, clients int, seconds float64, job func(ctx context.Context, i int) error) error {
	// The meter outlives the job context, which a failed job cancels.
	start, err := m.begin(ctx)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if err := job(ctx, int(next.Add(1)-1)); err != nil {
					errOnce.Do(func() { firstErr = err })
					cancel()
					return
				}
				if time.Since(start).Seconds() >= seconds {
					return
				}
			}
		}()
	}
	wg.Wait()
	m.end(start)
	return firstErr
}

// --- table1-lenet --------------------------------------------------------

// table1Row is one Table 1 row, the unit the digest and the replay compare.
type table1Row struct {
	Sigma  float64
	Policy string
	Cells  []experiments.Cell
}

// measureTable1 runs experiments.Table1 over the σ grid, one call per job.
func measureTable1(ctx context.Context, w *experiments.Workload, cfg config) (*measured, error) {
	sz := cfg.sizes
	m := &measured{}
	var (
		first []table1Row
		sc0   experiments.SweepConfig
		res0  map[float64]map[string][]experiments.Cell
	)
	err := m.loop(ctx, cfg.seconds, func(i int) error {
		sc := experiments.SweepConfig{
			NWCs: experiments.DefaultNWCs(), Trials: sz.table1Trials, Seed: jobSeed(cfg.seed, i), EvalBatch: evalBatch,
		}
		start := time.Now()
		res, err := experiments.Table1(w, sz.table1Sigmas, sc)
		if err != nil {
			return err
		}
		m.job(start, len(sz.table1Sigmas)*len(experiments.Methods)*sc.Trials)
		if i == 0 {
			sc0, res0 = sc, res
		}
		return nil
	})
	if err != nil {
		return m, err
	}

	evalX, evalY := data.Subset(w.DS.TestX, w.DS.TestY, mc.EvalSize(len(w.DS.TestY)))
	for _, sigma := range sz.table1Sigmas {
		for _, pol := range experiments.Methods {
			first = append(first, table1Row{Sigma: sigma, Policy: pol, Cells: res0[sigma][pol]})
			m.cells = append(m.cells, cellSpec{
				id: fmt.Sprintf("sigma=%g/%s", sigma, pol), policy: pol, sigma: sigma, scenario: "none",
				evalX: evalX, evalY: evalY, seed: sc0.Seed, trials: sc0.Trials, grid: sc0.NWCs,
			})
		}
	}
	if m.first, err = json.Marshal(first); err != nil {
		return m, err
	}
	// A few trials cannot resolve a std difference as finely as a mean
	// difference, so the std shapes get twice the slack.
	shapes := experiments.CheckTable1Shapes(res0[experiments.SigmaTypical], sc0.NWCs, sz.shapeTol)
	loose := experiments.CheckTable1Shapes(res0[experiments.SigmaTypical], sc0.NWCs, 2*sz.shapeTol)
	var failed []string
	for i, c := range shapes {
		if strings.Contains(c.Name, " std ") {
			c = loose[i]
		}
		if !c.Pass {
			failed = append(failed, c.Name+" ("+c.Note+")")
		}
	}
	shapeErr := failures(failed)
	if len(shapes) == 0 {
		shapeErr = errors.New("no shapes checked")
	}
	m.checks = append(m.checks, check{
		name: fmt.Sprintf("CheckTable1Shapes at sigma=%g (%d shapes)", experiments.SigmaTypical, len(shapes)),
		err:  shapeErr,
	})
	m.render = func(res []*program.Result) ([]byte, error) {
		rows := make([]table1Row, len(res))
		for i, r := range res {
			rows[i] = table1Row{Sigma: m.cells[i].sigma, Policy: m.cells[i].policy, Cells: experiments.WelfordCells(accuracies(r))}
		}
		return json.Marshal(rows)
	}
	return m, nil
}

// --- algo1-lenet ---------------------------------------------------------

// measureAlgo1 runs the paper's Algorithm 1 (a drop budget); one job is
// the comparison the paper makes, a swim run and a magnitude run on the
// same seed.
func measureAlgo1(ctx context.Context, w *experiments.Workload, cfg config) (*measured, error) {
	const (
		sigma       = experiments.SigmaTypical
		granularity = 0.02
		maxDrop     = 1.0
		evalN       = 16
	)
	policies := []string{"swim", "magnitude"}
	drift, err := nonideal.ParseStack("drift:nu=0.1")
	if err != nil {
		return nil, err
	}
	cm, err := calib.Parse("gainoffset")
	if err != nil {
		return nil, err
	}
	x, y := data.Subset(w.DS.TestX, w.DS.TestY, evalN)
	budget := program.DropBudget(w.CleanAcc, maxDrop)
	m := &measured{}
	var first []*program.Result
	var seed0 uint64
	err = m.loop(ctx, cfg.seconds, func(i int) error {
		seed := jobSeed(cfg.seed, i)
		start := time.Now()
		trials := 0
		for _, name := range policies {
			pol, err := program.Lookup(name)
			if err != nil {
				return err
			}
			p, err := program.New(w.Net, pol, budget, append(w.Options(sigma),
				program.WithEval(x, y), program.WithGranularity(granularity),
				program.WithNonidealities(drift...), program.WithReadTime(day),
				program.WithCalibrationModel(cm), program.WithSeed(seed),
				program.WithTrials(cfg.sizes.algo1Trials), program.WithWorkers(workers))...)
			if err != nil {
				return err
			}
			res, err := p.Run(ctx)
			if err != nil {
				return err
			}
			trials += res.Trials
			if i == 0 {
				first, seed0 = append(first, res), seed
			}
		}
		m.job(start, trials)
		return nil
	})
	if err != nil {
		return m, err
	}

	var shape []string
	for i, res := range first {
		if res.Evals.N() != res.Trials || res.NWC.N() != res.Trials || len(res.Trace) == 0 {
			shape = append(shape, res.Policy)
		}
		m.cells = append(m.cells, cellSpec{
			id: policies[i], policy: policies[i], sigma: sigma, scenario: nonideal.StackString(drift),
			evalX: x, evalY: y, seed: seed0, trials: res.Trials, models: drift, readTime: day,
			calib: &cm, drop: budget, gran: granularity,
		})
	}
	m.render = func(res []*program.Result) ([]byte, error) {
		records := make([]*serialize.ResultRecord, len(res))
		for i, r := range res {
			records[i] = serialize.CaptureResult(r)
		}
		return json.Marshal(records)
	}
	if m.first, err = m.render(first); err != nil {
		return m, err
	}
	m.checks = append(m.checks, check{name: "every Algorithm 1 run folds every trial", err: failures(shape)})
	return m, nil
}

// --- serve-coord ---------------------------------------------------------

// coordRequest is serve-coord's job i: a LeNet scenario job over the NWC
// grid {0, 0.1, 0.3}, read one day after programming under drift.
func coordRequest(trials int, seed uint64) *serialize.RequestRecord {
	return &serialize.RequestRecord{
		Version: serialize.RequestVersion, Kind: serialize.KindScenario, Workload: "lenet",
		Sigmas: []float64{experiments.SigmaTypical}, Policies: []string{"swim", "noverify"}, NWCs: []float64{0, 0.1, 0.3},
		Scenarios: "drift:nu=0.1", Times: []float64{day},
		Seed: seed, Trials: trials, EvalBatch: evalBatch,
	}
}

// cellCount is how many pipeline runs a scenario request expands to.
func cellCount(req *serialize.RequestRecord) int {
	return len(req.Sigmas) * len(strings.Split(req.Scenarios, ";")) * len(req.Times) * len(req.Policies)
}

// replayScenario sets the replay up to re-execute a served scenario job and
// encode its results as the served envelope.
func replayScenario(m *measured, w *experiments.Workload, req *serialize.RequestRecord) error {
	cells, err := scenarioCells(w, req)
	if err != nil {
		return err
	}
	m.cells = cells
	m.render = func(res []*program.Result) ([]byte, error) {
		return encodeEnvelope(envelopeOf(req.Workload, cells, res))
	}
	return nil
}

// scenarioCells mirrors experiments' scenario cell walk for req, which has
// no calibration: σ × scenario × read time × policy, one shared cycle table
// per σ.
func scenarioCells(w *experiments.Workload, req *serialize.RequestRecord) ([]cellSpec, error) {
	scenarios, err := experiments.ParseScenarios(req.Scenarios)
	if err != nil {
		return nil, err
	}
	evalX, evalY := data.Subset(w.DS.TestX, w.DS.TestY, mc.EvalSize(len(w.DS.TestY)))
	var cells []cellSpec
	for _, sigma := range req.Sigmas {
		table := w.DeviceFor(sigma).CycleTable(300, rng.New(req.Seed^0x5ce11a))
		for _, sc := range scenarios {
			for _, t := range req.Times {
				for _, pol := range req.Policies {
					cells = append(cells, cellSpec{
						id: fmt.Sprintf("sigma=%g/%s/t=%g/%s", sigma, sc.Spec, t, pol), policy: pol,
						sigma: sigma, scenario: sc.Spec, evalX: evalX, evalY: evalY,
						seed: req.Seed, trials: req.Trials, table: table, models: sc.Models,
						readTime: t, grid: req.NWCs,
					})
				}
			}
		}
	}
	return cells, nil
}

// measureCoord drives a coordinator and two loopback workers with a closed
// loop of workers clients.
func measureCoord(ctx context.Context, w *experiments.Workload, cfg config) (*measured, error) {
	tab := only("lenet", w)
	w1, err := startDaemon(serve.Config{TotalWorkers: 1, Workloads: tab})
	if err != nil {
		return nil, err
	}
	defer stopDaemons(w1)
	w2, err := startDaemon(serve.Config{TotalWorkers: 1, Workloads: tab})
	if err != nil {
		return nil, err
	}
	defer stopDaemons(w2)
	co, err := startDaemon(serve.Config{WorkerURLs: []string{w1.url, w2.url}, ShardTrials: 1, Workloads: tab})
	if err != nil {
		return nil, err
	}
	defer stopDaemons(co)
	c := newClient(co.url, workers)
	defer c.close()

	request := func(i int) *serialize.RequestRecord { return coordRequest(cfg.sizes.coordTrials, jobSeed(cfg.seed, i)) }
	m := &measured{}
	var times serveTimes
	bodies := map[int][]byte{}
	err = m.closedLoop(ctx, workers, cfg.seconds, func(ctx context.Context, i int) error {
		req := request(i)
		s, err := c.run(ctx, req)
		if err != nil {
			return err
		}
		m.job(s.start, cellCount(req)*req.Trials)
		m.mu.Lock()
		bodies[i] = s.body
		times.add(s)
		m.mu.Unlock()
		return nil
	})
	if err != nil {
		return m, err
	}
	snap, err := c.metricsJSON(ctx)
	if err != nil {
		return m, err
	}
	lat, err := c.promSeries(ctx, "swim_shard_latency_seconds_sum", "swim_shard_latency_seconds_count")
	if err != nil {
		return m, err
	}
	c.close()
	if err := stopDaemons(co, w1, w2); err != nil {
		return m, err
	}

	n := len(m.jobs)
	m.info = times.summary()
	m.info["serve.shards"] = snap["shards_dispatched"] / float64(n)
	m.info["serve.shard_retries"] = snap["shard_retries"]
	if cnt := lat["swim_shard_latency_seconds_count"]; cnt > 0 {
		m.info["serve.shard_mean_s"] = lat["swim_shard_latency_seconds_sum"] / cnt
	}
	m.first = bodies[0]
	for _, i := range []int{0, n - 1} {
		want, err := singleNode(ctx, w, request(i))
		if err != nil {
			return m, err
		}
		var mismatch error
		if !bytes.Equal(bodies[i], want) {
			mismatch = fmt.Errorf("coordinator bytes differ from single-node execution")
		}
		m.checks = append(m.checks, check{name: fmt.Sprintf("job %d envelope equals single-node EncodeEnvelope", i), err: mismatch})
	}
	return m, replayScenario(m, w, request(0))
}

// singleNode computes req in this process, the way the daemon and the
// swim-scenario CLI do, and encodes its envelope.
func singleNode(ctx context.Context, w *experiments.Workload, req *serialize.RequestRecord) ([]byte, error) {
	scenarios, err := experiments.ParseScenarios(req.Scenarios)
	if err != nil {
		return nil, err
	}
	cfg := experiments.ScenarioConfig{
		NWCs: req.NWCs, Times: req.Times, Policies: req.Policies, Trials: req.Trials,
		Seed: req.Seed, EvalBatch: req.EvalBatch, Calib: req.Calib,
	}
	env := &serialize.ResultEnvelope{}
	for _, sigma := range req.Sigmas {
		res, err := experiments.ScenarioResults(ctx, w, sigma, scenarios, cfg, program.WithWorkers(workers))
		if err != nil {
			return nil, err
		}
		env.Cells = append(env.Cells, experiments.EnvelopeCells(req.Workload, sigma, res)...)
	}
	return encodeEnvelope(env)
}

// --- shared helpers ------------------------------------------------------

// envelopeOf wraps replayed results as the envelope a scenario job serves.
func envelopeOf(workload string, cells []cellSpec, results []*program.Result) *serialize.ResultEnvelope {
	env := &serialize.ResultEnvelope{}
	for i, c := range cells {
		env.Cells = append(env.Cells, serialize.CellRecord{
			Workload: workload, Sigma: c.sigma, Scenario: c.scenario, ReadTime: c.readTime,
			Policy: c.policy, Result: serialize.CaptureResult(results[i]),
		})
	}
	return env
}

func encodeEnvelope(env *serialize.ResultEnvelope) ([]byte, error) {
	var buf bytes.Buffer
	if err := serialize.EncodeEnvelope(&buf, env); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// accuracies returns a grid result's per-point accuracy aggregates.
func accuracies(r *program.Result) []*stat.Welford {
	out := make([]*stat.Welford, len(r.Points))
	for i, p := range r.Points {
		out[i] = p.Accuracy
	}
	return out
}

// failures turns a list of failed items into an error (nil for none).
func failures(items []string) error {
	if len(items) == 0 {
		return nil
	}
	return errors.New(strings.Join(items, "; "))
}
