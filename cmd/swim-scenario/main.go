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
//	              [-kernel scalar|blocked|parallel[:workers=N]]
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
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"swim/internal/calib"
	"swim/internal/experiments"
	"swim/internal/kernel"
	"swim/internal/mc"
	"swim/internal/nonideal"
	"swim/internal/program"
	"swim/internal/serialize"
)

func parseFloats(csv string) ([]float64, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var out []float64
	for _, s := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	workload := flag.String("workload", "lenet", "lenet | convnet | resnet | tiny")
	nonidealFlag := flag.String("nonideal", "none;drift",
		"';'-separated nonideality scenarios, models stacked with '+' ('list' prints registered models)")
	timesFlag := flag.String("times", "", "comma-separated read times in seconds (default 0,3600,86400)")
	nwcsFlag := flag.String("nwcs", "", "comma-separated NWC grid (default 0,0.1,0.3)")
	policiesFlag := flag.String("policies", "",
		"comma-separated registry policies (default swim,magnitude,noverify; 'list' prints the registered names)")
	sigma := flag.Float64("sigma", experiments.SigmaHigh, "device variation before write-verify")
	jsonFlag := flag.String("json", "",
		"also write the sweep as a serialized result envelope to this path ('-' = stdout) — byte-identical to the swim-serve result endpoint")
	trials := flag.Int("trials", 0, "Monte-Carlo trials (0 = default / SWIM_MC)")
	workers := flag.Int("workers", 0, "Monte-Carlo worker goroutines (0 = SWIM_WORKERS or all CPUs)")
	kernelFlag := flag.String("kernel", "",
		"kernel backend for the eval plans' dense primitives (bit-identical to scalar; 'list' prints registered backends)")
	calibFlag := flag.String("calib", "",
		"calibration model fitting a digital read-out correction per cell, e.g. gainoffset or pertile:probes=16 ('list' prints registered models)")
	stateFlag := flag.String("state", "",
		"directory of serialized workload states: restore instead of retraining, persist after training (see swim-train -state)")
	flag.Parse()
	mc.SetWorkers(*workers)
	experiments.SetStateDir(*stateFlag)

	if *policiesFlag == "list" {
		fmt.Println(strings.Join(program.Names(), "\n"))
		return
	}
	// The -nonideal value here is a ';'-separated scenario LIST, not the
	// single stack nonideal.FromFlag parses, but the "list" convention must
	// match the other binaries' (whitespace-tolerant).
	if _, listing, _ := nonideal.FromFlag(*nonidealFlag); listing != "" {
		fmt.Println(listing)
		return
	}

	fatal := func(code int, err error) {
		fmt.Fprintln(os.Stderr, "swim-scenario:", err)
		os.Exit(code)
	}
	scenarios, err := experiments.ParseScenarios(*nonidealFlag)
	if err != nil {
		fatal(2, err)
	}
	cfg := experiments.DefaultScenarioConfig()
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if ts, err := parseFloats(*timesFlag); err != nil {
		fatal(2, err)
	} else if ts != nil {
		cfg.Times = ts
	}
	if ns, err := parseFloats(*nwcsFlag); err != nil {
		fatal(2, err)
	} else if ns != nil {
		cfg.NWCs = ns
	}
	policies, err := program.ResolveNames(*policiesFlag)
	if err != nil {
		fatal(2, err)
	}
	if policies != nil {
		cfg.Policies = policies
	}
	kern, listing, err := kernel.FromFlag(*kernelFlag)
	if err != nil {
		fatal(2, err)
	}
	if listing != "" {
		fmt.Println(listing)
		return
	}
	if *kernelFlag != "" {
		cfg.Kernel = kern.Spec()
	}
	cm, cok, clisting, err := calib.FromFlag(*calibFlag)
	if err != nil {
		fatal(2, err)
	}
	if clisting != "" {
		fmt.Println(clisting)
		return
	}
	if cok {
		cfg.Calib = cm.Spec()
	}

	// With -json - the envelope owns stdout; route the human-readable run
	// commentary to stderr so the JSON stays machine-parseable.
	human := io.Writer(os.Stdout)
	if *jsonFlag == "-" {
		human = os.Stderr
	}
	var w *experiments.Workload
	switch *workload {
	case "lenet":
		fmt.Fprintln(human, "training LeNet on the MNIST-like task (cached per process)...")
		w = experiments.LeNetMNIST()
	case "convnet":
		fmt.Fprintln(human, "training ConvNet on the CIFAR-like task...")
		w = experiments.ConvNetCIFAR()
	case "resnet":
		fmt.Fprintln(human, "training ResNet-18 on the CIFAR-like task...")
		w = experiments.ResNetCIFAR()
	case "tiny":
		fmt.Fprintln(human, "training ResNet-18 on the TinyImageNet-like task...")
		w = experiments.ResNetTiny()
	default:
		fatal(2, fmt.Errorf("unknown workload %q (want lenet, convnet, resnet or tiny)", *workload))
	}

	results, err := experiments.ScenarioResults(context.Background(), w, *sigma, scenarios, cfg)
	if err != nil {
		fatal(1, err)
	}
	experiments.PrintScenarioSweep(human, w, *sigma, cfg, experiments.SweepRows(results))

	if *jsonFlag != "" {
		out := os.Stdout
		if *jsonFlag != "-" {
			f, err := os.Create(*jsonFlag)
			if err != nil {
				fatal(1, err)
			}
			out = f
		}
		env := &serialize.ResultEnvelope{Cells: experiments.EnvelopeCells(*workload, *sigma, results)}
		err := serialize.EncodeEnvelope(out, env)
		if out != os.Stdout {
			// A failed close can lose buffered bytes: report it, not just
			// encode errors.
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fatal(1, err)
		}
	}
}
