// Command swim-train trains one of the paper's models on its synthetic task,
// reports accuracy, and optionally saves/loads the learned state (gob state
// dictionary via internal/serialize) so downstream tools can skip training.
//
// Usage:
//
//	swim-train -model lenet|convnet|resnet18 [-epochs N] [-save path]
//	swim-train -model lenet -load path        # evaluate a saved state
//	swim-train -model lenet -state dir        # persist under the registry name
//	    # (lenet-mnist.state, ...) so swim-serve/-table1/... -state dir
//	    # restore instead of retraining
//	swim-train -model lenet -policy swim -nwc 0.1 -sigma 1.0
//	    # also measure on-device accuracy via the program pipeline
//
// With -policy, the trained model is programmed onto simulated devices and
// evaluated at the given write budget through the named registry policy; the
// pipeline computes sensitivities from a calibration split on its own.
// -nonideal degrades the devices with a '+'-stacked nonideality scenario
// read at -readtime seconds after programming.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"swim/internal/cli"
	"swim/internal/data"
	"swim/internal/device"
	"swim/internal/experiments"
	"swim/internal/models"
	"swim/internal/nn"
	"swim/internal/program"
	"swim/internal/rng"
	"swim/internal/serialize"
	"swim/internal/train"
)

func main() {
	c := cli.New("swim-train", cli.Trials|cli.Workers|cli.State|cli.Nonideal|cli.ReadTime)
	model := flag.String("model", "lenet", "lenet | convnet | resnet18")
	epochs := flag.Int("epochs", 8, "training epochs")
	trainN := flag.Int("train", 2000, "training samples")
	testN := flag.Int("test", 800, "test samples")
	save := flag.String("save", "", "write trained state to this path")
	load := flag.String("load", "", "load state from this path instead of training")
	policy := flag.String("policy", "",
		"after training, evaluate on-device accuracy with this registry policy (empty = skip)")
	nwc := flag.Float64("nwc", 0.1, "write budget for the -policy evaluation (normalized write cycles)")
	sigma := flag.Float64("sigma", 1.0, "device variation for the -policy evaluation")
	c.Parse()
	var pol program.Policy
	if *policy != "" {
		var err error
		pol, err = program.Lookup(*policy)
		c.CheckFlag(err)
	}

	var (
		net          *nn.Network
		ds           *data.Dataset
		bits         int
		registryName string
	)
	r := rng.New(2)
	switch *model {
	case "lenet":
		ds = data.MNISTLike(*trainN, *testN, 1)
		net = models.LeNet(10, 4, r)
		bits, registryName = 4, "lenet-mnist"
	case "convnet":
		ds = data.CIFARLike(*trainN, *testN, 11)
		net = models.ConvNet(10, 8, 6, r)
		bits, registryName = 6, "convnet-cifar"
	case "resnet18":
		ds = data.CIFARLike(*trainN, *testN, 21)
		net = models.ResNet18(10, 8, 6, r)
		bits, registryName = 6, "resnet-cifar"
	default:
		c.CheckFlag(fmt.Errorf("unknown model %q", *model))
	}

	if *load != "" {
		f, err := os.Open(*load)
		c.Check(err)
		defer f.Close()
		c.Check(serialize.Load(f, net))
		fmt.Printf("loaded %s from %s\n", *model, *load)
	} else {
		cfg := train.DefaultConfig()
		cfg.Epochs = *epochs
		cfg.LRDecayEvery = *epochs / 2
		cfg.QATBits = bits
		cfg.Log = os.Stdout
		train.SGD(net, ds, cfg, r)
	}

	acc := train.Evaluate(net, ds.TestX, ds.TestY, 64)
	fmt.Printf("%s: test accuracy %.2f%% (%d mapped weights, %d-bit)\n",
		*model, acc, net.NumMappedWeights(), bits)

	if pol != nil {
		calX, calY := data.Subset(ds.TrainX, ds.TrainY, 512)
		opts := []program.Option{
			program.WithDevice(device.Default(bits, *sigma)),
			program.WithEval(ds.TestX, ds.TestY),
			program.WithCalibration(calX, calY),
			program.WithTraining(ds.TrainX, ds.TrainY),
			program.WithNonidealities(c.Nonideal...),
			program.WithReadTime(c.ReadTime),
			program.WithSeed(1000),
		}
		if c.Trials > 0 {
			opts = append(opts, program.WithTrials(c.Trials))
		}
		p, err := program.New(net, pol, program.GridBudget(*nwc), opts...)
		c.Check(err)
		res, err := p.Run(context.Background())
		c.Check(err)
		pt := res.Points[0]
		fmt.Printf("on-device accuracy via %s at NWC %.2f (sigma=%.2f, %d trials): %s\n",
			res.Policy, pt.Target, *sigma, res.Trials, pt.Accuracy)
	}

	if *save != "" {
		f, err := os.Create(*save)
		c.Check(err)
		err = serialize.Save(f, net)
		if cerr := f.Close(); err == nil {
			err = cerr // a failed close can lose buffered bytes
		}
		c.Check(err)
		fmt.Printf("state saved to %s\n", *save)
	}

	if c.State != "" {
		c.Check(experiments.SaveState(registryName, net))
		fmt.Printf("workload state saved as %s/%s\n", c.State, experiments.StateFile(registryName))
	}
}
