// Quickstart: the complete SWIM pipeline in one file.
//
// It trains a small quantized network, computes per-weight sensitivities with
// the single-pass second-derivative backprop, and runs the program pipeline:
// the network is mapped onto simulated NVM devices and write-verifying just
// the top 10% most sensitive weights recovers almost all of the accuracy
// lost to programming noise — the paper's headline result.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
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
	// 1. A trained, quantization-aware model (the paper's starting point).
	fmt.Println("== 1. train a 4-bit LeNet on the MNIST-like task")
	ds := data.MNISTLike(1200, 600, 1)
	r := rng.New(2)
	net := models.LeNet(10, 4, r)
	cfg := train.DefaultConfig()
	cfg.Epochs = 6
	cfg.QATBits = 4
	cfg.Log = os.Stdout
	train.SGD(net, ds, cfg, r)
	clean := train.Evaluate(net, ds.TestX, ds.TestY, 64)
	fmt.Printf("clean accuracy: %.2f%%  (%d crossbar-mapped weights)\n\n", clean, net.NumMappedWeights())

	// 2. Sensitivity: one forward + one second-derivative backward pass.
	fmt.Println("== 2. compute per-weight sensitivities (Hessian diagonal)")
	calX, calY := data.Subset(ds.TrainX, ds.TrainY, 512)
	hess := swim.Sensitivity(net, calX, calY, 64)
	sens, err := program.NewSensitivity(hess, swim.FlatWeights(net))
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	fmt.Printf("sensitivities computed for %d weights in a single pass\n\n", len(hess))

	// 3. One pipeline run walks the whole write-budget grid: the "swim"
	// policy resolves from the registry, the fixed-NWC budget is a value,
	// and the Result aggregates accuracy mean ± std over parallel
	// Monte-Carlo trials.
	fmt.Println("== 3. program onto NVM devices (sigma = 1.0) and selectively write-verify")
	pol, err := program.Lookup("swim")
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	p, err := program.New(net, pol, program.GridBudget(0, 0.1, 0.5, 1.0),
		program.WithDevice(device.Default(4, 1.0)),
		program.WithEval(ds.TestX, ds.TestY),
		program.WithSensitivity(sens),
		program.WithSeed(1234),
		program.WithTrials(6),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	for _, pt := range res.Points {
		fmt.Printf("NWC %.1f  accuracy %s\n", pt.Target, pt.Accuracy)
	}
	fmt.Println("\nwrite-verifying ~10% of weights (NWC 0.1) recovers nearly the full-")
	fmt.Println("verify accuracy: that is SWIM's ~10x programming speedup.")
}
