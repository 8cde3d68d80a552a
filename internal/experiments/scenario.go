package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"swim/internal/calib"
	"swim/internal/cost"
	"swim/internal/data"
	"swim/internal/mc"
	"swim/internal/nonideal"
	"swim/internal/program"
	"swim/internal/serialize"
)

// ReadScenario bundles a read-time nonideality stack with the time accuracy
// is read at — the explicit argument that replaced the former process-global
// SetScenario (an ambient-state data-race hazard for any concurrent server).
// The zero value is the ideal-device baseline. CLIs build one from their
// -nonideal / -readtime flags and thread it through the experiment configs.
type ReadScenario struct {
	// Models is the nonideality stack, applied in order at read time.
	Models []nonideal.Nonideality
	// ReadTime is when accuracy is measured, in seconds after programming.
	ReadTime float64
}

// Options returns the pipeline options implementing the scenario (nil for
// the ideal baseline).
func (s ReadScenario) Options() []program.Option {
	var opts []program.Option
	if len(s.Models) > 0 {
		opts = append(opts,
			program.WithNonidealities(s.Models...),
			program.WithReadTime(s.ReadTime))
	}
	return opts
}

// Scenario is one named stack of device-nonideality models a robustness
// sweep evaluates under. Parse one from a spec string with ParseScenario.
type Scenario struct {
	// Spec is the display / round-trip form ("none" for the ideal
	// baseline).
	Spec string
	// Models is the parsed stack, applied in order at read time.
	Models []nonideal.Nonideality
}

// ParseScenario builds a Scenario from a '+'-joined nonideality spec (see
// nonideal.ParseStack); "" and "none" denote the ideal-device baseline.
func ParseScenario(spec string) (Scenario, error) {
	models, err := nonideal.ParseStack(spec)
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{Spec: nonideal.StackString(models), Models: models}, nil
}

// ParseScenarios parses a ';'-separated list of scenario specs (the
// swim-scenario -nonideal grammar: models within a scenario join with '+',
// scenarios separate with ';'). An empty list yields nil.
func ParseScenarios(list string) ([]Scenario, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var out []Scenario
	for _, spec := range strings.Split(list, ";") {
		sc, err := ParseScenario(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// ScenarioConfig parameterizes a scenario sweep: the cross product of
// registry policies × nonideality scenarios × read times, each cell an
// accuracy-vs-NWC series.
type ScenarioConfig struct {
	// NWCs is the write-budget grid every cell walks (default
	// DefaultNWCs' first three points: 0, 0.1, 0.3).
	NWCs []float64
	// Times are the read times in seconds after programming (default
	// {0, 3600, 86400}: immediate, one hour, one day).
	Times []float64
	// Policies are registry policy names (default swim, magnitude,
	// noverify — the write-verify extremes plus the paper's method).
	Policies []string
	// Trials is the Monte-Carlo trial count (0 = SWIM_MC / 8).
	Trials int
	// Seed is the Monte-Carlo master seed shared by every cell, so
	// policies face common device instances within a scenario.
	Seed uint64
	// EvalBatch is the accuracy-measurement batch size (0 = 64).
	EvalBatch int
	// Cost is a hardware cost-model spec (package cost grammar); every
	// cell's Result then carries a Cost report. Empty disables cost
	// accounting (the default — cost is an opt-in axis so legacy requests
	// hash and serialize unchanged).
	Cost string
	// Calib is a calibration-model spec (package calib grammar); every
	// cell's pipeline then fits a digital read-out correction from a probe
	// pass and applies it before accuracy evaluation. Empty disables
	// calibration (the default). Calibration changes results — corrected
	// read-outs are a different computation — so the serving tier includes
	// it in cache keys like the cost axis.
	Calib string
}

// DefaultScenarioConfig returns the scenario-sweep defaults, honouring
// SWIM_MC / SWIM_FAST like DefaultSweep.
func DefaultScenarioConfig() ScenarioConfig {
	trials := mc.Trials(8)
	if mc.Fast() {
		trials = mc.Trials(3)
	}
	return ScenarioConfig{
		NWCs:      []float64{0, 0.1, 0.3},
		Times:     []float64{0, 3600, 86400},
		Policies:  []string{"swim", "magnitude", "noverify"},
		Trials:    trials,
		Seed:      4000,
		EvalBatch: 64,
	}
}

// normalized fills config gaps from DefaultScenarioConfig, so every caller
// (CLI, daemon, tests) resolves an underspecified request the same way —
// the canonical request hash of the serving tier depends on this.
func (cfg ScenarioConfig) normalized() ScenarioConfig {
	def := DefaultScenarioConfig()
	if len(cfg.NWCs) == 0 {
		cfg.NWCs = def.NWCs
	}
	if len(cfg.Times) == 0 {
		cfg.Times = def.Times
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = def.Policies
	}
	if cfg.Trials <= 0 {
		cfg.Trials = def.Trials
	}
	if cfg.EvalBatch <= 0 {
		cfg.EvalBatch = def.EvalBatch
	}
	return cfg
}

// CheckGrid checks a sweep's grid axes: NWC targets by program.CheckNWCs
// (finite, non-negative, non-decreasing), read times by
// program.CheckReadTime (non-negative, not NaN), every policy registered. program.New checks each cell again, but only once the
// workload is built; the CLIs call this before they train and the daemon
// before it accepts a request.
func CheckGrid(nwcs, times []float64, policies []string) error {
	if err := program.CheckNWCs(nwcs); err != nil {
		return fmt.Errorf("nwcs %v: %w", nwcs, err)
	}
	for _, t := range times {
		if err := program.CheckReadTime(t); err != nil {
			return fmt.Errorf("read times %v: %w", times, err)
		}
	}
	for _, name := range policies {
		if _, err := program.Lookup(name); err != nil {
			return err
		}
	}
	return nil
}

// ScenarioRow is one cell of the sweep: a (scenario, read time, policy)
// combination's accuracy over the NWC grid.
type ScenarioRow struct {
	Scenario string
	Time     float64
	Policy   string
	Cells    []Cell
}

// ScenarioResult is one cell of the cross product with its full pipeline
// Result — the serving tier's unit of work (serialize.CaptureResult turns
// the Result into the wire record).
type ScenarioResult struct {
	Scenario string
	Time     float64
	Policy   string
	Result   *program.Result
}

// ScenarioResults runs the full cross product of scenarios × read times ×
// policies on one workload at device σ, one program.Pipeline per cell, all
// sharing a common cycle table and seed so cells are comparable. The cells
// of a scenario run as one program.Group, so policies that see the same
// devices share each trial's set-up. Cells come back in (scenario, time,
// policy) order with their complete pipeline Results. extra options are
// appended to every cell's pipeline — the serving daemon threads its
// fair-share worker gate through here.
func ScenarioResults(ctx context.Context, w *Workload, sigma float64, scenarios []Scenario,
	cfg ScenarioConfig, extra ...program.Option) ([]ScenarioResult, error) {

	var out []ScenarioResult
	err := scenarioCells(w, sigma, scenarios, cfg, extra, func(sc Scenario, cells []scenarioCell, g program.Group) error {
		res, err := g.Run(ctx)
		if err != nil {
			return err
		}
		for k, c := range cells {
			out = append(out, ScenarioResult{Scenario: sc.Spec, Time: c.time, Policy: c.policy, Result: res[k]})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScenarioShard is one cell of the cross product restricted to a trial
// range: the mergeable partial result a distributed worker computes
// (program.Shard carries the raw per-trial observations).
type ScenarioShard struct {
	// Scenario is the cell's canonical nonideality spec.
	Scenario string
	// Time is the cell's read time in seconds after programming.
	Time float64
	// Policy is the cell's registry policy name.
	Policy string
	// Shard holds the trial range's per-trial observations and metadata.
	Shard *program.Shard
}

// ScenarioShards runs only trials [lo, hi) of every cell of the cross
// product — the same cells, groups and seeds as ScenarioResults, through
// the identical grid-trial bodies, so the rows of a complete trial-range
// partition merge (program.MergeShards) into results bit-identical to a
// single ScenarioResults call. This is the serving tier's /v1/shards
// execution path.
func ScenarioShards(ctx context.Context, w *Workload, sigma float64, scenarios []Scenario,
	cfg ScenarioConfig, lo, hi int, extra ...program.Option) ([]ScenarioShard, error) {

	ranged := append(append([]program.Option(nil), extra...), program.WithTrialRange(lo, hi))
	var out []ScenarioShard
	err := scenarioCells(w, sigma, scenarios, cfg, ranged, func(sc Scenario, cells []scenarioCell, g program.Group) error {
		shards, err := g.RunShards(ctx)
		if err != nil {
			return err
		}
		for k, c := range cells {
			out = append(out, ScenarioShard{Scenario: sc.Spec, Time: c.time, Policy: c.policy, Shard: shards[k]})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scenarioCell names one (read time, policy) cell of a scenario.
type scenarioCell struct {
	time   float64
	policy string
}

// scenarioCells walks the scenarios of the cross product in canonical
// order, building every read time × policy cell's fully configured
// pipeline (shared cycle table and seed, workload options, extra options
// appended) and handing the scenario's cells and their group, in (time,
// policy) order, to run. Both the full-run and the trial-range shard paths
// iterate through here, which is what keeps their cells aligned. The cycle
// table comes from the workload's (σ, seed) memo, so the shards of one job
// that a process serves derive it once.
func scenarioCells(w *Workload, sigma float64, scenarios []Scenario, cfg ScenarioConfig,
	extra []program.Option, run func(sc Scenario, cells []scenarioCell, g program.Group) error) error {

	if len(scenarios) == 0 {
		scenarios = []Scenario{{Spec: "none"}}
	}
	cfg = cfg.normalized()
	var costOpts []program.Option
	if cfg.Cost != "" {
		m, err := cost.Parse(cfg.Cost)
		if err != nil {
			return err
		}
		costOpts = []program.Option{program.WithCostModel(m)}
	}
	if cfg.Calib != "" {
		cm, err := calib.Parse(cfg.Calib)
		if err != nil {
			return err
		}
		costOpts = append(costOpts, program.WithCalibrationModel(cm))
	}
	table := w.cycleTable(sigma, cfg.Seed)
	evalX, evalY := data.Subset(w.DS.TestX, w.DS.TestY, mc.EvalSize(len(w.DS.TestY)))
	for _, sc := range scenarios {
		var cells []scenarioCell
		var group program.Group
		for _, tRead := range cfg.Times {
			for _, name := range cfg.Policies {
				pol, err := program.Lookup(name)
				if err != nil {
					return fmt.Errorf("scenario %s: %w", sc.Spec, err)
				}
				opts := append(w.Options(sigma),
					program.WithEval(evalX, evalY),
					program.WithEvalBatch(cfg.EvalBatch),
					program.WithCycleTable(table),
					program.WithNonidealities(sc.Models...),
					program.WithReadTime(tRead),
					program.WithSeed(cfg.Seed),
					program.WithTrials(cfg.Trials))
				opts = append(opts, costOpts...)
				p, err := program.New(w.Net, pol, program.GridBudget(cfg.NWCs...),
					append(opts, extra...)...)
				if err != nil {
					return fmt.Errorf("scenario %s/%s at t=%gs: %w", sc.Spec, name, tRead, err)
				}
				cells = append(cells, scenarioCell{time: tRead, policy: name})
				group = append(group, p)
			}
		}
		if err := run(sc, cells, group); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Spec, err)
		}
	}
	return nil
}

// EnvelopeCells converts one σ-slice of scenario results into wire cells
// (package serialize). The serving daemon and the swim-scenario -json path
// both build their envelopes through here, so a request answered over HTTP
// and the equivalent CLI invocation serialize bit-identically.
func EnvelopeCells(workload string, sigma float64, results []ScenarioResult) []serialize.CellRecord {
	cells := make([]serialize.CellRecord, 0, len(results))
	for _, sr := range results {
		cells = append(cells, serialize.CellRecord{
			Workload: workload,
			Sigma:    sigma,
			Scenario: sr.Scenario,
			ReadTime: sr.Time,
			Policy:   sr.Policy,
			Result:   serialize.CaptureResult(sr.Result),
		})
	}
	return cells
}

// SweepRows reduces scenario results to display rows (accuracy cells over
// the NWC grid, in the same (scenario, time, policy) order).
func SweepRows(results []ScenarioResult) []ScenarioRow {
	rows := make([]ScenarioRow, 0, len(results))
	for _, sr := range results {
		row := ScenarioRow{Scenario: sr.Scenario, Time: sr.Time, Policy: sr.Policy}
		for _, pt := range sr.Result.Points {
			row.Cells = append(row.Cells, cellOf(pt.Accuracy))
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatDuration renders a read time compactly (0, 1h, 1d, 90s, ...).
func FormatDuration(seconds float64) string {
	switch {
	case seconds == 0:
		return "0"
	case seconds >= 86400 && seconds == float64(int(seconds/86400))*86400:
		return fmt.Sprintf("%gd", seconds/86400)
	case seconds >= 3600 && seconds == float64(int(seconds/3600))*3600:
		return fmt.Sprintf("%gh", seconds/3600)
	default:
		return fmt.Sprintf("%gs", seconds)
	}
}

// PrintScenarioSweep renders the sweep grouped by scenario, one row per
// (read time, policy).
func PrintScenarioSweep(out io.Writer, w *Workload, sigma float64, cfg ScenarioConfig, rows []ScenarioRow) {
	fmt.Fprintf(out, "Scenario sweep: accuracy (%%) vs NWC on %s (clean %.2f%%, sigma=%.2f, %d MC trials)\n",
		w.Name, w.CleanAcc, sigma, cfg.Trials)
	prev := ""
	for _, row := range rows {
		if row.Scenario != prev {
			fmt.Fprintf(out, "\nscenario: %s\n", row.Scenario)
			fmt.Fprintf(out, "%-6s %-10s", "t", "policy")
			for _, nwc := range cfg.NWCs {
				fmt.Fprintf(out, " %13.1f", nwc)
			}
			fmt.Fprintln(out)
			prev = row.Scenario
		}
		fmt.Fprintf(out, "%-6s %-10s", FormatDuration(row.Time), row.Policy)
		for _, c := range row.Cells {
			fmt.Fprintf(out, " %6.2f ± %4.2f", c.Mean, c.Std)
		}
		fmt.Fprintln(out)
	}
}
