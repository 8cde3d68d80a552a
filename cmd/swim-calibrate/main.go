// Command swim-calibrate reports the write-verify device model statistics
// against the two anchors the paper adopts from Shim et al. (§4.1): an
// average of about ten write cycles per weight and a post-write-verify
// residual spread of σ ≈ 0.03. These anchors underpin the NWC accounting
// every program-pipeline policy is billed by; -list-policies prints the
// registered policy names the other swim-* tools accept.
//
// With -nonideal, it additionally prints the device-level degradation of a
// '+'-stacked nonideality scenario: the mean ± std conductance read back at
// each level and time point, the raw material the scenario sweeps build on.
package main

import (
	"context"
	"flag"
	"fmt"

	"swim/internal/cli"
	"swim/internal/device"
	"swim/internal/experiments"
	"swim/internal/mc"
	"swim/internal/nonideal"
	"swim/internal/rng"
	"swim/internal/stat"
)

// printNonideal renders the scenario's conductance transfer table: one row
// per programmed level, one mean ± std column per read time, aggregated
// over many devices of one trial instance (per-device variation is the
// spread the models inject).
func printNonideal(m device.Model, models []nonideal.Nonideality, times []float64) {
	inst := nonideal.NewTrials(models, m, rng.New(0xdeca7))
	fmt.Printf("\nnonideality transfer (%s), %d devices per cell\n", nonideal.StackString(models), 2000)
	fmt.Printf("%-6s", "level")
	for _, t := range times {
		fmt.Printf(" %16s", "t="+experiments.FormatDuration(t))
	}
	fmt.Println()
	for level := 0; level <= m.DeviceLevels(0); level++ {
		fmt.Printf("%-6d", level)
		for _, t := range times {
			var w stat.Welford
			for dev := 0; dev < 2000; dev++ {
				w.Add(inst.Apply(dev, float64(level), t))
			}
			fmt.Printf(" %8.3f ± %5.3f", w.Mean(), w.Std())
		}
		fmt.Println()
	}
}

func main() {
	c := cli.New("swim-calibrate", cli.Workers|cli.Nonideal|cli.ListPolicies)
	n := flag.Int("n", 100000, "simulated weights per row")
	bits := flag.Int("bits", 4, "weight precision M")
	c.Parse()
	// Every row runs the same M: a width the device model refuses (0 rows
	// of zeros, a negative shift, a 2^64-entry table) exits 2 before any.
	c.CheckFlag(device.Default(*bits, 0).Validate())
	// Every statistic is a mean over -n weights: none at all prints NaN.
	if *n < 1 {
		c.CheckFlag(fmt.Errorf("-n must be at least 1, got %d", *n))
	}

	fmt.Printf("device model calibration (M=%d, K=4, tolerance 0.06)\n\n", *bits)
	fmt.Printf("%-8s %-22s %-22s %s\n", "sigma", "uniform magnitudes", "gaussian weights", "no-verify noise (LSB)")
	// The σ rows are independent; mc.MapCtx runs them in parallel with fixed
	// per-row seeds, so the printed table is identical at any worker count.
	sigmas := []float64{0.1, 0.2, 0.5, 0.75, 1.0}
	rows, err := mc.MapCtx(context.Background(), 0xca11b, len(sigmas), 0, func(i int, _ *rng.Source) string {
		sigma := sigmas[i]
		m := device.Default(*bits, sigma)
		u := m.Calibrate(*n, rng.New(uint64(1+i)))
		g := m.CalibrateGaussian(*n, rng.New(uint64(100+i)))
		return fmt.Sprintf("%-8.2f %6.2f cyc / %.4f res %6.2f cyc / %.4f res %8.3f",
			sigma, u.MeanCycles, u.ResidualStd, g.MeanCycles, g.ResidualStd, m.NoiseStd())
	})
	c.Check(err)
	for _, row := range rows {
		fmt.Println(row)
	}
	fmt.Println("\npaper anchors: ~10 cycles per weight, residual sigma ~0.03 after write-verify")

	if len(c.Nonideal) > 0 {
		printNonideal(device.Default(*bits, 0.5), c.Nonideal, []float64{0, 3600, 86400})
	}
}
