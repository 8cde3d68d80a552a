// Command swim-fig1 regenerates the paper's Fig. 1: the correlation between
// per-weight accuracy drop under perturbation and (a) weight magnitude —
// weak — versus (b) the second derivative — strong (paper quotes Pearson
// 0.83).
//
// Usage:
//
//	swim-fig1 [-weights N] [-repeats N] [-sigma S] [-policy swim]
//	          [-nonideal drift:nu=0.05] [-readtime 3600]
//
// -policy names the selector-backed registry policy whose ranking
// stratifies half the sampled weights across the sensitivity range.
// -nonideal maps each trial clone onto ideal devices degraded by the given
// scenario (read at -readtime seconds) before perturbing, probing whether
// the ranking survives realistic hardware.
package main

import (
	"flag"
	"os"

	"swim/internal/cli"
	"swim/internal/experiments"
)

func main() {
	c := cli.New("swim-fig1", cli.Workers|cli.State|cli.Nonideal|cli.ReadTime|cli.Kernel)
	cfg := experiments.DefaultFig1()
	flag.IntVar(&cfg.NumWeights, "weights", cfg.NumWeights, "weights to sample")
	flag.IntVar(&cfg.Repeats, "repeats", cfg.Repeats, "Monte-Carlo repeats per weight")
	flag.Float64Var(&cfg.SigmaPerturb, "sigma", cfg.SigmaPerturb, "perturbation std (weight LSB)")
	flag.IntVar(&cfg.EvalN, "eval", cfg.EvalN, "evaluation subset size")
	flag.IntVar(&cfg.EvalBatch, "batch", cfg.EvalBatch, "accuracy-measurement batch size")
	flag.StringVar(&cfg.Rank, "policy", cfg.Rank,
		"selector-backed registry policy whose ranking stratifies the weight sample")
	c.Parse()
	cfg.Nonideal, cfg.ReadTime, cfg.Kernel = c.Nonideal, c.ReadTime, c.Kernel

	w := experiments.LeNetMNIST()
	res, err := experiments.Fig1(w, cfg)
	c.Check(err)
	experiments.PrintFig1(os.Stdout, w, cfg, res)
}
