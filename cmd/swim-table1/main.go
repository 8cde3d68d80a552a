// Command swim-table1 regenerates the paper's Table 1: accuracy (mean ± std)
// versus normalized write cycles on LeNet/MNIST-like, across three device-σ
// levels, for any set of registered programming policies.
//
// Usage:
//
//	swim-table1 [-trials N] [-sigmas 0.5,0.75,1.0] [-policies swim,magnitude,random,insitu]
//	            [-nonideal drift:nu=0.05+stuckat:p=0.001] [-readtime 3600]
//
// Policies resolve through the program registry; -policies list prints the
// registered names. -nonideal applies a '+'-stacked device-nonideality
// scenario (package nonideal; 'list' prints the model names) read at
// -readtime seconds after programming. Environment: SWIM_MC (trials),
// SWIM_FAST (CI-scale workloads).
package main

import (
	"flag"
	"fmt"
	"os"

	"swim/internal/cli"
	"swim/internal/experiments"
)

func main() {
	c := cli.New("swim-table1", cli.Trials|cli.Workers|cli.State|cli.Nonideal|cli.ReadTime|cli.Kernel|cli.Calib)
	c.Policies("")
	sigmaFlag := flag.String("sigmas", "", "comma-separated device sigma grid (default 0.5,0.75,1.0)")
	c.Parse()
	cfg := c.Sweep()
	sigmas := c.Floats("sigma", *sigmaFlag)
	if sigmas == nil {
		sigmas = experiments.SigmaGrid()
	}

	w := c.Workload("lenet", os.Stdout)
	res, err := experiments.Table1(w, sigmas, cfg)
	c.Check(err)
	experiments.PrintTable1(os.Stdout, w, sigmas, cfg, res)

	// Headline speedups at the paper's NWC = 0.1 operating point, against
	// every other policy in the run.
	policies := cfg.Policies
	if len(policies) == 0 {
		policies = experiments.Methods
	}
	if len(policies) < 2 {
		return
	}
	ref := policies[0]
	nwcs := cfg.NWCs
	for _, sigma := range sigmas {
		sw := res[sigma][ref]
		fmt.Printf("\nsigma %.2f speedups for matching %s@NWC=0.1 accuracy:\n", sigma, ref)
		for _, m := range policies[1:] {
			s := experiments.SpeedupAt(sw, res[sigma][m], nwcs, 0.1)
			fmt.Printf("  vs %-10s %.0fx\n", m, s)
		}
	}
}
