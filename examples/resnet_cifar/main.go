// resnet_cifar exercises SWIM on a deep residual network — the paper's
// Fig. 2b setting: ResNet-18 on a CIFAR-like task, quantized to 6 bits. It
// demonstrates that the second-derivative backprop handles skip connections,
// batch normalization and strided projections, and compares the "swim" and
// "random" registry policies at a 10% write budget on one shared pipeline
// configuration.
//
// Run with: go run ./examples/resnet_cifar
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
	fmt.Println("training a slim ResNet-18 (6-bit) on the CIFAR-like task...")
	ds := data.CIFARLike(1000, 400, 21)
	r := rng.New(22)
	net := models.ResNet18(10, 6, 6, r)
	cfg := train.DefaultConfig()
	cfg.Epochs = 6
	cfg.QATBits = 6
	cfg.Log = os.Stdout
	train.SGD(net, ds, cfg, r)
	clean := train.Evaluate(net, ds.TestX, ds.TestY, 64)
	fmt.Printf("clean accuracy %.2f%% with %d mapped weights across %d tensors\n\n",
		clean, net.NumMappedWeights(), len(net.MappedParams()))

	calX, calY := data.Subset(ds.TrainX, ds.TrainY, 256)
	hess := swim.Sensitivity(net, calX, calY, 32)
	sens, err := program.NewSensitivity(hess, swim.FlatWeights(net))
	if err != nil {
		fmt.Fprintln(os.Stderr, "resnet_cifar:", err)
		os.Exit(1)
	}
	fmt.Println("sensitivities computed through 8 residual blocks in one pass")

	for _, name := range []string{"swim", "random"} {
		pol, err := program.Lookup(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "resnet_cifar:", err)
			os.Exit(1)
		}
		p, err := program.New(net, pol, program.GridBudget(0.1),
			program.WithDevice(device.Default(6, 1.0)),
			program.WithEval(ds.TestX, ds.TestY),
			program.WithSensitivity(sens),
			program.WithSeed(1234),
			program.WithTrials(4),
		)
		if err != nil {
			fmt.Fprintln(os.Stderr, "resnet_cifar:", err)
			os.Exit(1)
		}
		res, err := p.Run(context.Background())
		if err != nil {
			fmt.Fprintln(os.Stderr, "resnet_cifar:", err)
			os.Exit(1)
		}
		fmt.Printf("NWC 0.1 via %-7s accuracy %s\n", res.Policy, res.Points[0].Accuracy)
	}
}
