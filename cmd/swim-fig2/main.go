// Command swim-fig2 regenerates one panel of the paper's Fig. 2: accuracy
// versus normalized write cycles for the configured policies at the
// high-variation operating point.
//
// Usage:
//
//	swim-fig2 -panel a|b|c     (a: ConvNet/CIFAR, b: ResNet-18/CIFAR,
//	                            c: ResNet-18/TinyImageNet)
//	          [-policies swim,magnitude,random,insitu]
//	          [-nonideal drift:nu=0.05+stuckat:p=0.001] [-readtime 3600]
package main

import (
	"flag"
	"fmt"
	"os"

	"swim/internal/cli"
	"swim/internal/experiments"
)

// panels maps each figure panel to the workload it evaluates.
var panels = map[string]string{"a": "convnet", "b": "resnet", "c": "tiny"}

func main() {
	c := cli.New("swim-fig2", cli.Trials|cli.Workers|cli.State|cli.Nonideal|cli.ReadTime|cli.Kernel|cli.Calib)
	c.Policies("")
	panel := flag.String("panel", "a", "figure panel: a, b or c")
	sigma := flag.Float64("sigma", experiments.SigmaHigh,
		"device variation before write-verify (deeper models reach the paper's drop regime at lower sigma)")
	c.Parse()
	cfg := c.Sweep()

	name, ok := panels[*panel]
	if !ok {
		c.CheckFlag(fmt.Errorf("unknown panel %q (want a, b or c)", *panel))
	}
	w := c.Workload(name, os.Stdout)
	res, err := experiments.Fig2At(w, *sigma, cfg)
	c.Check(err)
	experiments.PrintFig2At(os.Stdout, w, *sigma, cfg, res)
}
