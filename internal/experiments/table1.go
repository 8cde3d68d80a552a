package experiments

import (
	"context"
	"fmt"
	"io"

	"swim/internal/calib"
	"swim/internal/data"
	"swim/internal/mc"
	"swim/internal/program"
	"swim/internal/stat"
)

// Methods is the default policy set, in the order the paper's Table 1 lists
// them. Every name resolves through the program registry.
var Methods = []string{"swim", "magnitude", "random", "insitu"}

// Cell is one mean ± std entry.
type Cell struct {
	Mean, Std float64
}

// String renders the cell in the tables' "mean ± std" form.
func (c Cell) String() string { return fmt.Sprintf("%.2f ± %.2f", c.Mean, c.Std) }

// cellOf converts a Welford aggregate into a table cell.
func cellOf(w *stat.Welford) Cell { return Cell{Mean: w.Mean(), Std: w.Std()} }

// SweepConfig parameterizes an accuracy-vs-NWC sweep (Table 1 rows and the
// Fig. 2 curves share it).
type SweepConfig struct {
	NWCs   []float64
	Trials int
	Seed   uint64
	// EvalBatch is the accuracy-measurement batch size (0 = 64).
	EvalBatch int
	// Policies overrides the policy set (nil = Methods). Names resolve
	// through the program registry.
	Policies []string
	// Scenario applies a read-time nonideality stack to every cell of the
	// sweep (the explicit replacement for the removed process-global
	// SetScenario). Zero value = ideal devices.
	Scenario ReadScenario
	// Calib is a calibration-model spec (package calib grammar); every cell
	// then fits a digital read-out correction from a probe pass and applies
	// it before accuracy evaluation. "" = no calibration. This is a results
	// axis — corrected read-outs are a different computation.
	Calib string
}

// DefaultNWCs is the paper's Table 1 NWC grid.
func DefaultNWCs() []float64 { return []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0} }

// DefaultSweep returns the sweep configuration, honouring SWIM_MC.
func DefaultSweep() SweepConfig {
	trials := mc.Trials(8)
	if mc.Fast() {
		trials = mc.Trials(3)
	}
	return SweepConfig{NWCs: DefaultNWCs(), Trials: trials, Seed: 1000, EvalBatch: 64}
}

func (cfg SweepConfig) policies() []string {
	if len(cfg.Policies) > 0 {
		return cfg.Policies
	}
	return Methods
}

func (cfg SweepConfig) evalBatch() int {
	if cfg.EvalBatch > 0 {
		return cfg.EvalBatch
	}
	return 64
}

// Sweep measures accuracy (mean ± std over Monte-Carlo trials) for one
// workload, device σ and registry policy name at every NWC point, by running
// one program.Pipeline over the fixed-NWC grid.
func Sweep(w *Workload, sigma float64, method string, cfg SweepConfig) ([]Cell, error) {
	pol, err := program.Lookup(method)
	if err != nil {
		return nil, fmt.Errorf("sweep %s at sigma=%.2f: %w", w.Name, sigma, err)
	}
	return SweepPolicy(w, sigma, pol, cfg)
}

// SweepPolicy is Sweep for a policy value (registered or not): each trial
// programs a fresh device instance, walks the write-budget grid cumulatively
// per the policy, and evaluates on the test split — the paper's protocol.
// Trials run in parallel on mc.Workers() goroutines and the aggregates are
// bit-identical for any worker count.
func SweepPolicy(w *Workload, sigma float64, pol program.Policy, cfg SweepConfig) ([]Cell, error) {
	cells, err := sweepGroup(w, sigma, []program.Policy{pol}, cfg)
	if err != nil {
		return nil, err
	}
	return cells[0], nil
}

// sweepGroup runs one grid pipeline per policy at σ as one program.Group:
// the policies share the seed, so those that draw nothing before
// programming share each trial's device set-up. It returns each policy's
// accuracy cells, in policy order.
func sweepGroup(w *Workload, sigma float64, pols []program.Policy, cfg SweepConfig) ([][]Cell, error) {
	evalX, evalY := data.Subset(w.DS.TestX, w.DS.TestY, mc.EvalSize(len(w.DS.TestY)))
	opts := append(w.Options(sigma), cfg.Scenario.Options()...)
	if cfg.Calib != "" {
		cm, err := calib.Parse(cfg.Calib)
		if err != nil {
			return nil, fmt.Errorf("sweep %s at sigma=%.2f: %w", w.Name, sigma, err)
		}
		opts = append(opts, program.WithCalibrationModel(cm))
	}
	opts = append(opts,
		program.WithEval(evalX, evalY),
		program.WithEvalBatch(cfg.evalBatch()),
		program.WithSeed(cfg.Seed),
		program.WithTrials(cfg.Trials))
	group := make(program.Group, len(pols))
	for k, pol := range pols {
		p, err := program.New(w.Net, pol, program.GridBudget(cfg.NWCs...), opts...)
		if err != nil {
			return nil, fmt.Errorf("sweep %s/%s at sigma=%.2f: %w", w.Name, pol.Name(), sigma, err)
		}
		group[k] = p
	}
	res, err := group.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("sweep %s at sigma=%.2f: %w", w.Name, sigma, err)
	}
	out := make([][]Cell, len(res))
	for k, r := range res {
		out[k] = make([]Cell, len(r.Points))
		for i, pt := range r.Points {
			out[k][i] = cellOf(pt.Accuracy)
		}
	}
	return out, nil
}

// sweepPolicies runs every configured policy at σ as one group, keyed by
// policy name.
func sweepPolicies(w *Workload, sigma float64, cfg SweepConfig) (map[string][]Cell, error) {
	names := cfg.policies()
	pols := make([]program.Policy, len(names))
	for k, name := range names {
		pol, err := program.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("sweep %s at sigma=%.2f: %w", w.Name, sigma, err)
		}
		pols[k] = pol
	}
	cells, err := sweepGroup(w, sigma, pols, cfg)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]Cell, len(names))
	for k, name := range names {
		out[name] = cells[k]
	}
	return out, nil
}

// Table1 runs the full Table 1 grid: σ × policy × NWC on the LeNet/MNIST
// workload (or any other workload, for ablations), one group per σ.
func Table1(w *Workload, sigmas []float64, cfg SweepConfig) (map[float64]map[string][]Cell, error) {
	out := make(map[float64]map[string][]Cell)
	for _, sigma := range sigmas {
		cells, err := sweepPolicies(w, sigma, cfg)
		if err != nil {
			return nil, err
		}
		out[sigma] = cells
	}
	return out, nil
}

// PrintTable1 renders the grid in the paper's Table 1 layout.
func PrintTable1(out io.Writer, w *Workload, sigmas []float64, cfg SweepConfig, res map[float64]map[string][]Cell) {
	fmt.Fprintf(out, "Table 1: accuracy (%%) vs NWC on %s (clean accuracy %.2f%%, %d weights, %d MC trials)\n",
		w.Name, w.CleanAcc, w.Net.NumMappedWeights(), cfg.Trials)
	fmt.Fprintf(out, "%-6s %-10s", "sigma", "policy")
	for _, nwc := range cfg.NWCs {
		fmt.Fprintf(out, " %13.1f", nwc)
	}
	fmt.Fprintln(out)
	for _, sigma := range sigmas {
		for _, m := range cfg.policies() {
			fmt.Fprintf(out, "%-6.2f %-10s", sigma, m)
			for _, c := range res[sigma][m] {
				fmt.Fprintf(out, " %6.2f ± %4.2f", c.Mean, c.Std)
			}
			fmt.Fprintln(out)
		}
	}
}

// SpeedupAt reports the write-cycle speedup of the first method over the
// second for reaching the accuracy that `method` attains at targetNWC —
// the headline "up to 10x" style numbers of the paper. It interpolates on
// the rival's curve.
func SpeedupAt(cells, rival []Cell, nwcs []float64, targetNWC float64) float64 {
	// Accuracy the method reaches at targetNWC.
	var acc float64
	for i, n := range nwcs {
		if n >= targetNWC {
			acc = cells[i].Mean
			break
		}
	}
	// First grid point where the rival matches it.
	for i, c := range rival {
		if c.Mean >= acc-1e-9 {
			if nwcs[i] == 0 {
				return 1
			}
			return nwcs[i] / targetNWC
		}
	}
	// Rival never reaches it within the grid.
	last := nwcs[len(nwcs)-1]
	return last / targetNWC
}

// WelfordCells converts raw Welford aggregates to cells (helper shared by
// other experiment files).
func WelfordCells(ws []*stat.Welford) []Cell {
	out := make([]Cell, len(ws))
	for i, w := range ws {
		out[i] = cellOf(w)
	}
	return out
}
