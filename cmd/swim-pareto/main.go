// Command swim-pareto traces the accuracy-vs-programming-energy Pareto
// frontier across programming policies: every (policy, NWC-target) cell of a
// Monte-Carlo sweep is costed through a hardware cost model (package cost),
// and the cells no other cell dominates — higher accuracy for no more
// programming energy — form the frontier. This is the question the cost tier
// exists to answer: how much accuracy each nanojoule of write-verify
// programming actually buys on a given device.
//
// Usage:
//
//	swim-pareto [-workload lenet|convnet|resnet|tiny]
//	            [-cost rram] [-nwcs 0,0.1,0.3]
//	            [-policies swim,magnitude,noverify]
//	            [-calib gainoffset|pertile[:probes=N]]
//	            [-sigma 1.0] [-trials N] [-workers N]
//	            [-json path] [-state dir]
//
// -cost selects the hardware cost model ("list" prints the registered
// presets; parameters attach as name:key=value). -calib enables the
// closed-loop calibration tier; its probe-read pass is priced through the
// cost model and added to every cell's programming energy, so the frontier
// becomes accuracy versus TOTAL energy — a calibrated cell must buy back
// its probe reads in accuracy to stay Pareto-optimal. -json additionally writes
// the costed sweep as a serialized result envelope — byte-identical to what
// the swim-serve daemon's result endpoint returns for the equivalent
// cost-bearing sweep request (CI diffs the two). -state restores/persists
// trained workload states so repeated runs skip training. Environment:
// SWIM_MC (trials), SWIM_EVAL (evaluation subset), SWIM_FAST (CI-scale
// workloads).
package main

import (
	"context"
	"flag"
	"fmt"

	"swim/internal/cli"
	"swim/internal/experiments"
	"swim/internal/serialize"
	"swim/internal/stat"
)

// paretoPoint is one costed sweep cell flattened for frontier analysis.
type paretoPoint struct {
	policy   string
	target   float64
	acc      *stat.Welford
	energyUJ *stat.Welford
	timeMS   *stat.Welford
	frontier bool
}

// markFrontier marks the Pareto-optimal points: a point is dominated when
// another point reaches at least its mean accuracy for at most its mean
// programming energy, strictly better on one of the two.
func markFrontier(pts []paretoPoint) {
	for i := range pts {
		dominated := false
		for j := range pts {
			if i == j {
				continue
			}
			betterAcc := pts[j].acc.Mean() >= pts[i].acc.Mean()
			betterEnergy := pts[j].energyUJ.Mean() <= pts[i].energyUJ.Mean()
			strict := pts[j].acc.Mean() > pts[i].acc.Mean() || pts[j].energyUJ.Mean() < pts[i].energyUJ.Mean()
			if betterAcc && betterEnergy && strict {
				dominated = true
				break
			}
		}
		pts[i].frontier = !dominated
	}
}

func main() {
	c := cli.New("swim-pareto", cli.Trials|cli.Workers|cli.State|cli.Calib|cli.Cost)
	c.Policies("swim,magnitude,noverify")
	workload := flag.String("workload", "lenet", "lenet | convnet | resnet | tiny")
	nwcsFlag := flag.String("nwcs", "", "comma-separated NWC grid (default 0,0.1,0.3)")
	sigma := flag.Float64("sigma", experiments.SigmaHigh, "device variation before write-verify")
	jsonFlag := flag.String("json", "",
		"also write the costed sweep as a serialized result envelope to this path ('-' = stdout) — byte-identical to the swim-serve result endpoint")
	c.Parse()
	cfg := c.ScenarioConfig()
	cfg.Times = []float64{0} // the frontier is a programming-time question
	if ns := c.Floats("number", *nwcsFlag); ns != nil {
		cfg.NWCs = ns
	}

	human := c.Human(*jsonFlag)
	w := c.Workload(*workload, human)
	results, err := experiments.ScenarioResults(context.Background(), w, *sigma, nil, cfg)
	c.Check(err)

	var pts []paretoPoint
	rep := results[0].Result.Cost
	for _, sr := range results {
		if sr.Result.Cost == nil {
			c.Check(fmt.Errorf("policy %s returned no cost report", sr.Policy))
		}
		// Calibration is a fixed per-programming-pass surcharge: shifting a
		// Welford aggregate by a constant is exact (same n and m2, mean + c),
		// so the frontier ranks total energy — programming plus probe pass —
		// without touching the per-trial aggregates.
		calibUJ := 0.0
		if cc := sr.Result.Cost.Calibration; cc != nil {
			calibUJ = cc.EnergyNJ * 1e-3
		}
		// Cost.Points and Points share the NWC-target grid index for index.
		for i, cp := range sr.Result.Cost.Points {
			energy := cp.EnergyUJ
			if calibUJ != 0 {
				energy = stat.FromMoments(energy.N(), energy.Mean()+calibUJ, energy.M2())
			}
			pts = append(pts, paretoPoint{
				policy: sr.Policy, target: cp.Target, acc: sr.Result.Points[i].Accuracy,
				energyUJ: energy, timeMS: cp.TimeMS,
			})
		}
	}
	markFrontier(pts)

	fmt.Fprintf(human, "\nAccuracy vs programming energy on %s (clean %.2f%%, sigma=%.2f, %d MC trials)\n",
		w.Name, w.CleanAcc, *sigma, cfg.Trials)
	fmt.Fprintf(human, "cost model: %s\n", rep.Model)
	fmt.Fprintf(human, "array: %d tiles (%d×%d), %.3f mm²; inference: %.1f nJ + %.2f µs per sample\n",
		rep.Geometry.Tiles, rep.Geometry.TileRows, rep.Geometry.TileCols,
		rep.AreaMM2, rep.InferenceEnergyNJ, rep.InferenceLatencyUS)
	if cc := rep.Calibration; cc != nil {
		fmt.Fprintf(human, "calibration: %s — %d probe MatVecs, %.1f nJ + %.2f µs per pass (added to every cell's energy)\n",
			cc.Model, cc.Ops.MatVecs, cc.EnergyNJ, cc.LatencyUS)
	}
	fmt.Fprintln(human)
	fmt.Fprintf(human, "%-10s %6s %16s %18s %14s  %s\n", "policy", "nwc", "accuracy (%)", "energy (µJ)", "time (ms)", "pareto")
	for _, p := range pts {
		mark := ""
		if p.frontier {
			mark = "*"
		}
		fmt.Fprintf(human, "%-10s %6.2f %8.2f ± %4.2f %10.2f ± %5.2f %8.2f ± %3.2f  %s\n",
			p.policy, p.target, p.acc.Mean(), p.acc.Std(),
			p.energyUJ.Mean(), p.energyUJ.Std(), p.timeMS.Mean(), p.timeMS.Std(), mark)
	}
	fmt.Fprintln(human, "\n* = Pareto-optimal: no cell reaches higher mean accuracy for less programming energy")

	if *jsonFlag != "" {
		c.WriteEnvelope(*jsonFlag, &serialize.ResultEnvelope{Cells: experiments.EnvelopeCells(*workload, *sigma, results)})
	}
}
