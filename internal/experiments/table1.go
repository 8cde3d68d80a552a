package experiments

import (
	"context"
	"fmt"
	"io"

	"swim/internal/calib"
	"swim/internal/data"
	"swim/internal/kernel"
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
	// Kernel is a kernel-backend spec (package kernel grammar) for the
	// sweep's compiled evaluation plans; "" = kernel.Default().
	// Bit-identical across backends — a throughput knob, never a results
	// axis.
	Kernel string
	// Calib is a calibration-model spec (package calib grammar); every cell
	// then fits a digital read-out correction from a probe pass and applies
	// it before accuracy evaluation. "" = no calibration. Unlike Kernel this
	// IS a results axis — corrected read-outs are a different computation.
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
	evalX, evalY := data.Subset(w.DS.TestX, w.DS.TestY, mc.EvalSize(len(w.DS.TestY)))
	opts := append(w.Options(sigma), cfg.Scenario.Options()...)
	if cfg.Kernel != "" {
		k, err := kernel.Parse(cfg.Kernel)
		if err != nil {
			return nil, fmt.Errorf("sweep %s/%s at sigma=%.2f: %w", w.Name, pol.Name(), sigma, err)
		}
		opts = append(opts, program.WithKernelBackend(k))
	}
	if cfg.Calib != "" {
		cm, err := calib.Parse(cfg.Calib)
		if err != nil {
			return nil, fmt.Errorf("sweep %s/%s at sigma=%.2f: %w", w.Name, pol.Name(), sigma, err)
		}
		opts = append(opts, program.WithCalibrationModel(cm))
	}
	p, err := program.New(w.Net, pol, program.GridBudget(cfg.NWCs...),
		append(opts,
			program.WithEval(evalX, evalY),
			program.WithEvalBatch(cfg.evalBatch()),
			program.WithSeed(cfg.Seed),
			program.WithTrials(cfg.Trials))...)
	if err != nil {
		return nil, fmt.Errorf("sweep %s/%s at sigma=%.2f: %w", w.Name, pol.Name(), sigma, err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("sweep %s/%s at sigma=%.2f: %w", w.Name, pol.Name(), sigma, err)
	}
	cells := make([]Cell, len(res.Points))
	for i, pt := range res.Points {
		cells[i] = cellOf(pt.Accuracy)
	}
	return cells, nil
}

// Table1 runs the full Table 1 grid: σ × policy × NWC on the LeNet/MNIST
// workload (or any other workload, for ablations).
func Table1(w *Workload, sigmas []float64, cfg SweepConfig) (map[float64]map[string][]Cell, error) {
	out := make(map[float64]map[string][]Cell)
	for _, sigma := range sigmas {
		out[sigma] = make(map[string][]Cell)
		for _, m := range cfg.policies() {
			cells, err := Sweep(w, sigma, m, cfg)
			if err != nil {
				return nil, err
			}
			out[sigma][m] = cells
		}
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
