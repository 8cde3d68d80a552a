// Command swim-ablate runs the design-choice ablations DESIGN.md indexes:
//
//	granularity — Algorithm 1 granule size p (paper fixes p = 5%)
//	tiebreak    — SWIM's magnitude tie-breaker on/off (paper §3.2)
//	kbits       — bits per device K (paper fixes K = 4, Eq. 15)
//	hessian     — analytic vs finite-difference second-derivative ranking
//	              (the Eq. 4→5 diagonal approximation)
//	spatial     — §2.1 spatial-variation extension
//	fisher      — Hessian-diagonal vs empirical-Fisher ranking
//
// -policy picks the registry policy the granularity/kbits/spatial ablations
// probe (default swim); tiebreak, hessian and fisher are SWIM-specific.
// -nonideal applies a '+'-stacked device-nonideality scenario (read at
// -readtime seconds) to every pipeline-backed ablation.
package main

import (
	"flag"
	"fmt"
	"os"

	"swim/internal/cli"
	"swim/internal/experiments"
	"swim/internal/mc"
	"swim/internal/program"
)

func main() {
	c := cli.New("swim-ablate", cli.Workers|cli.State|cli.Nonideal|cli.ReadTime|cli.Kernel)
	what := flag.String("what", "granularity", "granularity | tiebreak | kbits | hessian | spatial | fisher | all")
	policy := flag.String("policy", "swim", "registry policy probed by the granularity/kbits/spatial ablations")
	c.Parse()
	scn := c.ReadScenario()
	pol, err := program.Lookup(*policy)
	c.CheckFlag(err)
	w := experiments.LeNetMNIST()
	trials := mc.Trials(5)
	run := map[string]func(){
		"granularity": func() {
			rows, err := experiments.AblateGranularity(w, pol, experiments.SigmaHigh, 1.0,
				[]float64{0.01, 0.05, 0.1, 0.25}, scn, trials, 40)
			c.Check(err)
			experiments.PrintGranularity(os.Stdout, w, 1.0, rows)
		},
		"tiebreak": func() {
			res, err := experiments.AblateTieBreak(w, experiments.SigmaHigh, 0.1, scn, trials, 41)
			c.Check(err)
			fmt.Printf("Ablation: SWIM magnitude tie-breaker at NWC=%.1f (tied weights: %.1f%%)\n",
				res.NWC, 100*res.TiedFraction)
			fmt.Printf("  with tie-break    %s\n", res.WithTie)
			fmt.Printf("  without tie-break %s\n", res.WithoutTie)
		},
		"kbits": func() {
			rows, err := experiments.AblateDeviceBits(w, pol, experiments.SigmaTypical, 0.1,
				[]int{1, 2, 4}, scn, trials, 42)
			c.Check(err)
			experiments.PrintKBits(os.Stdout, w, pol.Name(), experiments.SigmaTypical, 0.1, rows)
		},
		"hessian": func() {
			rho := experiments.HessianQuality(w, 40, 43)
			fmt.Printf("Ablation: Eq. 4->5 diagonal approximation quality\n")
			fmt.Printf("  Spearman(analytic second derivative, finite difference) = %.3f\n", rho)
		},
		"spatial": func() {
			rows, err := experiments.AblateSpatial(w, pol, experiments.SigmaHigh, 0.1, scn, trials, 44)
			c.Check(err)
			experiments.PrintSpatial(os.Stdout, w, pol.Name(), 0.1, rows)
		},
		"fisher": func() {
			sw, fi, err := experiments.CompareFisher(w, experiments.SigmaHigh, 0.1, scn, trials, 45)
			c.Check(err)
			fmt.Printf("Extension: ranking metric at NWC=0.1 (sigma=%.2f)\n", experiments.SigmaHigh)
			fmt.Printf("  SWIM (Hessian diagonal)     %s\n", sw)
			fmt.Printf("  empirical Fisher (grad^2)   %s\n", fi)
		},
	}
	if *what == "all" {
		for _, k := range []string{"granularity", "tiebreak", "kbits", "hessian", "spatial", "fisher"} {
			run[k]()
			fmt.Println()
		}
		return
	}
	f, ok := run[*what]
	if !ok {
		c.CheckFlag(fmt.Errorf("unknown ablation %q", *what))
	}
	f()
}
