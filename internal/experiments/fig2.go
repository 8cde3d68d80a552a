package experiments

import (
	"fmt"
	"io"

	"swim/internal/plot"
)

// Fig2 runs one accuracy-vs-NWC curve set (all configured policies) for a
// workload at the Fig. 2 operating point σ = SigmaHigh. The paper's Fig. 2
// panels are exactly this on ConvNet/CIFAR-10 (a), ResNet-18/CIFAR-10 (b)
// and ResNet-18/Tiny ImageNet (c).
func Fig2(w *Workload, cfg SweepConfig) (map[string][]Cell, error) {
	return Fig2At(w, SigmaHigh, cfg)
}

// Fig2At is Fig2 at an explicit device σ. Depth amplifies weight variation
// (each noisy layer compounds), so deeper models reach the paper's NWC = 0
// accuracy-drop regime at a smaller σ than LeNet; cmd/swim-fig2 exposes the
// knob per panel.
func Fig2At(w *Workload, sigma float64, cfg SweepConfig) (map[string][]Cell, error) {
	return sweepPolicies(w, sigma, cfg)
}

// PrintFig2 renders one panel's series, one row per policy.
func PrintFig2(out io.Writer, w *Workload, cfg SweepConfig, res map[string][]Cell) {
	PrintFig2At(out, w, SigmaHigh, cfg, res)
}

// PrintFig2At renders one panel's series at an explicit σ.
func PrintFig2At(out io.Writer, w *Workload, sigma float64, cfg SweepConfig, res map[string][]Cell) {
	fmt.Fprintf(out, "Fig. 2 panel: %s (clean %.2f%%, sigma=%.2f, %d MC trials)\n",
		w.Name, w.CleanAcc, sigma, cfg.Trials)
	fmt.Fprintf(out, "%-10s", "policy")
	for _, nwc := range cfg.NWCs {
		fmt.Fprintf(out, " %13.1f", nwc)
	}
	fmt.Fprintln(out)
	for _, m := range cfg.policies() {
		fmt.Fprintf(out, "%-10s", m)
		for _, c := range res[m] {
			fmt.Fprintf(out, " %6.2f ± %4.2f", c.Mean, c.Std)
		}
		fmt.Fprintln(out)
	}
	chart := plot.Chart{
		Title:  fmt.Sprintf("accuracy (%%) vs NWC — %s", w.Name),
		XLabel: "normalized write cycles", YLabel: "accuracy %",
	}
	for _, m := range cfg.policies() {
		s := plot.Series{Name: m, X: cfg.NWCs}
		for _, c := range res[m] {
			s.Y = append(s.Y, c.Mean)
			s.Err = append(s.Err, c.Std)
		}
		chart.Series = append(chart.Series, s)
	}
	fmt.Fprintln(out, chart.Render())
}
