// lenet_mnist reproduces the paper's Algorithm 1 end to end on LeNet: given a
// maximum acceptable accuracy drop δA, iteratively write-verify 5% granules
// of the most sensitive weights until the mapped accuracy is within δA of the
// clean model, and report the NWC (programming time) each policy needs.
//
// Each policy runs as a drop-budget program pipeline: the stopping rule is a
// Budget value, the ranking is a registry Policy, and the Result carries the
// per-granule accuracy trace that used to require hand-rolled loops.
//
// Run with: go run ./examples/lenet_mnist -drop 1.0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"swim/internal/data"
	"swim/internal/device"
	"swim/internal/models"
	"swim/internal/program"
	"swim/internal/rng"
	"swim/internal/swim"
	"swim/internal/train"
)

func main() {
	drop := flag.Float64("drop", 1.0, "maximum acceptable accuracy drop (percentage points)")
	sigma := flag.Float64("sigma", 1.0, "device variation before write-verify")
	flag.Parse()

	ds := data.MNISTLike(1500, 800, 1)
	r := rng.New(2)
	net := models.LeNet(10, 4, r)
	cfg := train.DefaultConfig()
	cfg.Epochs = 6
	cfg.QATBits = 4
	train.SGD(net, ds, cfg, r)
	clean := train.Evaluate(net, ds.TestX, ds.TestY, 64)
	fmt.Printf("clean accuracy %.2f%%, target: within %.2f pp after mapping (sigma=%.2f)\n\n",
		clean, *drop, *sigma)

	calX, calY := data.Subset(ds.TrainX, ds.TrainY, 512)
	hess := swim.Sensitivity(net, calX, calY, 64)
	sens, err := program.NewSensitivity(hess, swim.FlatWeights(net))
	if err != nil {
		fmt.Fprintln(os.Stderr, "lenet_mnist:", err)
		os.Exit(1)
	}

	for _, name := range []string{"swim", "magnitude", "random"} {
		pol, err := program.Lookup(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lenet_mnist:", err)
			os.Exit(1)
		}
		p, err := program.New(net, pol, program.DropBudget(clean, *drop),
			program.WithDevice(device.Default(4, *sigma)),
			program.WithEval(ds.TestX, ds.TestY),
			program.WithSensitivity(sens),
			program.WithGranularity(0.05),
			program.WithSeed(7),
			program.WithTrials(1),
		)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lenet_mnist:", err)
			os.Exit(1)
		}
		res, err := p.Run(context.Background())
		status := "met"
		switch {
		case errors.Is(err, program.ErrBudgetExhausted):
			status = "NOT met"
		case err != nil:
			fmt.Fprintln(os.Stderr, "lenet_mnist:", err)
			os.Exit(1)
		}
		last := res.Trace[len(res.Trace)-1]
		fmt.Printf("%-10s target %s: NWC %.2f, %.0f%% of weights verified, final accuracy %.2f%%\n",
			res.Policy, status, res.NWC.Mean(), 100*last.FractionVerified, last.Accuracy.Mean())
		for _, s := range res.Trace {
			fmt.Printf("    verified %5.1f%%  NWC %.3f  accuracy %.2f%%\n",
				100*s.FractionVerified, s.NWC.Mean(), s.Accuracy.Mean())
		}
	}
}
