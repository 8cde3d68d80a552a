// Command swim-scenario sweeps programming policies against device-
// nonideality scenarios over time — the robustness-study axis the paper's
// Gaussian-noise-only evaluation leaves open. Each cell of the
// policy × scenario × read-time cross product is a full Monte-Carlo
// accuracy-vs-NWC sweep on a shared seed, so policies face common device
// instances.
//
// Usage:
//
//	swim-scenario [-workload lenet|convnet|resnet|tiny]
//	              [-nonideal "none;drift;drift:nu=0.05+stuckat:p=0.001"]
//	              [-times 0,3600,86400] [-nwcs 0,0.1,0.3]
//	              [-policies swim,magnitude,noverify]
//	              [-sigma 1.0] [-trials N] [-workers N]
//	              [-calib gainoffset|pertile[:probes=N]]
//	              [-json path] [-state dir]
//
// -json additionally writes the sweep as a serialized result envelope —
// byte-identical to what the swim-serve daemon's result endpoint returns
// for the equivalent request (CI diffs the two). -state restores/persists
// trained workload states so repeated runs skip training.
//
// Scenario grammar: scenarios separate with ';', models within a scenario
// stack with '+', parameters attach as name:key=value,key=value.
// "-nonideal list" prints the registered model names. Environment: SWIM_MC
// (trials), SWIM_EVAL (evaluation subset), SWIM_FAST (CI-scale workloads).
package main

import (
	"context"
	"flag"

	"swim/internal/cli"
	"swim/internal/experiments"
	"swim/internal/serialize"
)

func main() {
	c := cli.New("swim-scenario", cli.Trials|cli.Workers|cli.State|cli.Scenarios|cli.Calib)
	c.Policies("")
	workload := flag.String("workload", "lenet", "lenet | convnet | resnet | tiny")
	timesFlag := flag.String("times", "", "comma-separated read times in seconds (default 0,3600,86400)")
	nwcsFlag := flag.String("nwcs", "", "comma-separated NWC grid (default 0,0.1,0.3)")
	sigma := flag.Float64("sigma", experiments.SigmaHigh, "device variation before write-verify")
	jsonFlag := flag.String("json", "",
		"also write the sweep as a serialized result envelope to this path ('-' = stdout) — byte-identical to the swim-serve result endpoint")
	c.Parse()
	cfg := c.ScenarioConfig()
	if ts := c.Floats("number", *timesFlag); ts != nil {
		cfg.Times = ts
	}
	if ns := c.Floats("number", *nwcsFlag); ns != nil {
		cfg.NWCs = ns
	}

	human := c.Human(*jsonFlag)
	w := c.Workload(*workload, human)
	results, err := experiments.ScenarioResults(context.Background(), w, *sigma, c.Scenarios, cfg)
	c.Check(err)
	experiments.PrintScenarioSweep(human, w, *sigma, cfg, experiments.SweepRows(results))

	if *jsonFlag != "" {
		c.WriteEnvelope(*jsonFlag, &serialize.ResultEnvelope{Cells: experiments.EnvelopeCells(*workload, *sigma, results)})
	}
}
