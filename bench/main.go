// Command bench is the repository benchmark. It runs one of three fixed
// workloads against the SWIM reproduction, reports end-to-end metrics,
// checks the outputs, and with -trace 1 re-executes the measured job
// through each layer's public functions to split a trial's time by layer.
// README.md describes the workloads, the metrics and how to read a trace.
//
// From the repository root:
//
//	bash bench/run.sh -workload <name|all> [-seed N] [-seconds S] [-trace 0|1] [-sets N]
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"swim/internal/data"
	"swim/internal/experiments"
	"swim/internal/mc"
	"swim/internal/serialize"
	"swim/internal/swim"
)

// runSeconds is how long one run measures by default; BENCHMARK.json
// records the same value.
const runSeconds = 20

// metricDef names one reported metric. Bound, for end-to-end metrics, is
// the share of the baseline median by which it may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees; the timings are read
// at the reference speed (speed.go). Each bound is at least three times the
// metric's ten-seed spread (IQR over median), at most 0.25; README.md has
// the measurements.
var endToEnd = []metricDef{
	{"trials_per_s", "1/s", "higher", 0.25},
	{"job_p50_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's layer metrics, per trial unless the README
// marks them as totals.
var perLayer = []metricDef{
	{Name: "program.rank_s", Unit: "s", Better: "lower"},
	{Name: "program.spend_s", Unit: "s", Better: "lower"},
	{Name: "program.evals", Unit: "count", Better: "lower"},
	{Name: "mapping.new_s", Unit: "s", Better: "lower"},
	{Name: "mapping.nonideal_s", Unit: "s", Better: "lower"},
	{Name: "mapping.calib_s", Unit: "s", Better: "lower"},
	{Name: "mapping.sync_s", Unit: "s", Better: "lower"},
	{Name: "mapping.verified", Unit: "count", Better: "lower"},
	{Name: "device.cycles", Unit: "count", Better: "lower"},
	{Name: "eval.accuracy_s", Unit: "s", Better: "lower"},
	{Name: "eval.samples", Unit: "count", Better: "lower"},
	{Name: "eval.macs", Unit: "count", Better: "lower"},
	{Name: "kernel.conv2d_s", Unit: "s", Better: "lower"},
	{Name: "kernel.linear_s", Unit: "s", Better: "lower"},
	{Name: "kernel.calls", Unit: "count", Better: "lower"},
	{Name: "swim.sensitivity_s", Unit: "s", Better: "lower"},
	{Name: "mc.busy_frac", Unit: "frac", Better: "higher"},
	{Name: "mc.trial_p50_s", Unit: "s", Better: "lower"},
	{Name: "mc.trial_p90_s", Unit: "s", Better: "lower"},
	{Name: "serialize.encode_s", Unit: "s", Better: "lower"},
	{Name: "serialize.bytes", Unit: "B", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.unattributed_frac", Unit: "frac", Better: "lower"},
}

// config is one run's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	sizes   sizes
	out     string // trace files
}

func main() {
	if name := os.Getenv(setupEnv); name != "" {
		os.Exit(setupChild(name))
	}
	if os.Getenv(meterEnv) != "" {
		os.Exit(meterChild())
	}
	os.Exit(cli(os.Args[1:], os.Stdout))
}

func cli(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all (each in its own process)")
	seed := fs.Uint64("seed", 1, "seed every Monte-Carlo and request seed derives from")
	seconds := fs.Float64("seconds", runSeconds, "measured-phase length: another job starts while it would end nearer to this than stopping")
	trace := fs.Int("trace", 0, "1 also replays the first job traced and reports per-layer metrics")
	sets := fs.Int("sets", 1, "run every selected workload this many times, each in its own process, and summarize the spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *sets < 1 || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1, -sets at least 1, and no positional arguments")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, sizes: full, out: filepath.Join("bench", "out")}
	var names []string
	if *name == "all" {
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
	} else if _, err := lookup(*name); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	} else {
		names = []string{*name}
	}
	if len(names) == 1 && *sets == 1 {
		return runOne(names[0], cfg, stdout)
	}
	return orchestrate(names, cfg, *sets, stdout)
}

// runOne runs one workload in this process and prints its report.
func runOne(name string, cfg config, stdout io.Writer) int {
	wl, err := lookup(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := pinEnv(wl); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	mc.SetWorkers(workers)

	// A safety net against a hung job; a healthy run ends well before it.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second+time.Duration(cfg.seconds*float64(time.Second)))
	defer cancel()
	rep, err := run(ctx, wl, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// pinEnv sets the environment the workload's jobs read, so the caller's
// shell cannot change the workload.
func pinEnv(wl *workload) error {
	for _, k := range []string{"SWIM_EVAL", "SWIM_MC", "SWIM_WORKERS"} {
		if err := os.Unsetenv(k); err != nil {
			return err
		}
	}
	if err := os.Setenv("SWIM_FAST", "1"); err != nil {
		return err
	}
	for k, v := range wl.env {
		if err := os.Setenv(k, v); err != nil {
			return err
		}
	}
	return nil
}

// report is one run's outcome.
type report struct {
	workload  string
	cfg       config
	endToEnd  map[string]float64
	perLayer  map[string]float64 // nil unless traced
	notes     []string           // how the end-to-end numbers were formed
	info      map[string]float64 // serve-layer diagnostics
	checks    []check
	attempted int
	failed    int
	digest    string
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if c.err != nil {
			return false
		}
	}
	return r.failed == 0
}

// run sets the workload up, measures it, checks it and, when tracing,
// replays its first job.
func run(ctx context.Context, wl *workload, cfg config) (*report, error) {
	// A traced run reports per-layer metrics, not setup_s, so it builds once.
	builds := cfg.sizes.setups
	if cfg.trace {
		builds = 1
	}
	w, setups, err := setup(ctx, wl, builds)
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	m, err := wl.measure(ctx, w, cfg)
	if m == nil {
		return nil, err
	}
	if m.endErr != nil {
		return nil, m.endErr
	}
	// Timings are reported at the reference speed (speed.go); the notes keep
	// the wall-clock numbers.
	var setupWall, setupRef, setupSlow []float64
	for _, b := range setups {
		setupWall = append(setupWall, b.seconds())
		setupRef = append(setupRef, b.refSeconds())
		setupSlow = append(setupSlow, b.slowdown)
	}
	wallRate := float64(m.trials) / m.elapsed
	rep := &report{workload: wl.name, cfg: cfg, attempted: len(m.jobs), info: m.info, endToEnd: map[string]float64{
		"setup_s":      median(setupRef),
		"trials_per_s": wallRate * m.slow,
		"job_p50_s":    median(m.refJobs),
		"peak_rss_mb":  m.rss,
	}}
	rep.notes = append(rep.notes,
		fmt.Sprintf("setup_s: median of %d cold builds at the reference speed; wall %s at slowdown %s",
			len(setups), fmtFloats(setupWall, "s"), fmtFloats(setupSlow, "")),
		fmt.Sprintf("trials_per_s: %d trials in %.3f s (%.4g/s wall) at slowdown %.4f", m.trials, m.elapsed, wallRate, m.slow),
		fmt.Sprintf("job_p50_s: median of %d jobs at the reference speed, %.4g s wall", len(m.jobs), median(m.jobs)))
	if !m.realtime {
		rep.notes = append(rep.notes, "the speed meter ran without real-time priority, so the slowdowns are less exact")
	}
	if err != nil {
		rep.attempted++
		rep.failed++
		rep.checks = append(rep.checks, check{"every job completes", err})
	}
	rep.checks = append(rep.checks, m.checks...)
	sum := sha256.Sum256(m.first)
	rep.digest = hex.EncodeToString(sum[:])
	if cfg.trace && err == nil {
		layers, checks, err := traceRun(ctx, wl, w, m, cfg)
		rep.perLayer = layers
		rep.checks = append(rep.checks, checks...)
		if err != nil {
			rep.checks = append(rep.checks, check{"traced replay completes", err})
		}
	}
	for _, vals := range []map[string]float64{rep.endToEnd, rep.perLayer} {
		for k, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				rep.checks = append(rep.checks, check{k + " is finite", fmt.Errorf("measured %v", v)})
				delete(vals, k)
			}
		}
	}
	return rep, nil
}

func fmtFloats(xs []float64, unit string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.TrimSpace("[" + strings.Join(parts, " ") + "] " + unit)
}

// traceRun replays the measured run's first job with spans around every
// layer call, checks the replay against the job, and writes the trace.
func traceRun(ctx context.Context, wl *workload, w *experiments.Workload, m *measured, cfg config) (map[string]float64, []check, error) {
	tr := newTracer()
	rp := newReplayer(w, tr)
	results, err := rp.run(ctx, m.cells)
	if err != nil {
		return nil, nil, err
	}
	layers := rp.metrics()
	replayed, err := m.render(results)
	if err == nil && !bytes.Equal(replayed, m.first) {
		err = fmt.Errorf("replayed results (%d bytes) differ from the first job's (%d bytes)", len(replayed), len(m.first))
	}
	checks := []check{{"traced replay folds bit-identical to the first job", err}}

	cx, cy := data.Subset(w.DS.TrainX, w.DS.TrainY, wl.calN)
	var hess []float64
	layers["swim.sensitivity_s"] = tr.timed("swim.sensitivity", func() {
		hess = swim.Sensitivity(w.Net.Clone(), cx, cy, evalBatch)
	}).Seconds()
	var sensErr error
	if !slices.Equal(hess, w.Hess) {
		sensErr = fmt.Errorf("a fresh pass differs from the %d sensitivities the build computed", len(w.Hess))
	}
	checks = append(checks, check{"sensitivity pass reproduces the workload's", sensErr})

	env := envelopeOf(w.Name, m.cells, results)
	var buf bytes.Buffer
	encodes := make([]float64, 5)
	for i := range encodes {
		buf.Reset()
		encodes[i] = tr.timed("serialize.encode", func() { err = serialize.EncodeEnvelope(&buf, env) }).Seconds()
		if err != nil {
			return nil, nil, err
		}
	}
	layers["serialize.encode_s"] = median(encodes)
	layers["serialize.bytes"] = float64(buf.Len())
	replayRate := float64(rp.trials) / rp.wall.Seconds()
	layers["trace.overhead_frac"] = 1 - replayRate/(float64(m.trials)/m.elapsed)

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return layers, checks, err
	}
	path := filepath.Join(cfg.out, "trace-"+wl.name+".json")
	err = tr.write(path, map[string]any{"workload": wl.name, "seed": cfg.seed, "per_layer": layers, "serve": m.info})
	return layers, checks, err
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// print writes the report: every metric by name with its unit, the serve
// diagnostics, the checks, the result digest, and last the result line —
// the end-to-end metrics, or the per-layer ones for a traced run.
func (r *report) print(w io.Writer) error {
	trace := 0
	if r.cfg.trace {
		trace = 1
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %d\n", r.workload, r.cfg.seed, r.cfg.seconds, trace)
	section := func(title string, defs []metricDef, vals map[string]float64) {
		fmt.Fprintln(w, title)
		for _, d := range defs {
			if v, ok := vals[d.Name]; ok {
				fmt.Fprintf(w, "  %-24s %14.6g %-5s (%s is better)\n", d.Name, v, d.Unit, d.Better)
			}
		}
	}
	section("end to end:", endToEnd, r.endToEnd)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  - %s\n", n)
	}
	if r.perLayer != nil {
		section("per layer (per trial unless README marks a total):", perLayer, r.perLayer)
	}
	if len(r.info) > 0 {
		fmt.Fprintln(w, "serve layer (diagnostics):")
		keys := make([]string, 0, len(r.info))
		for k := range r.info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-24s %14.6g\n", k, r.info[k])
		}
	}
	for _, c := range r.checks {
		status := "ok"
		if c.err != nil {
			status = "FAIL: " + c.err.Error()
		}
		fmt.Fprintf(w, "check %s: %s\n", c.name, status)
	}
	fmt.Fprintf(w, "result_digest sha256:%s\n", r.digest)

	line := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	defs, vals := endToEnd, r.endToEnd
	if r.cfg.trace {
		defs, vals = perLayer, r.perLayer
	}
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			line.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// childRun is one run the orchestrator started.
type childRun struct {
	name   string
	line   *resultLine
	digest string
}

// orchestrate runs every named workload sets times, each run in its own
// process of this binary, alternating the workload order between sets, and
// then summarizes each metric's spread across sets.
func orchestrate(names []string, cfg config, sets int, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	code := 0
	var runs []childRun
	for s := 0; s < sets; s++ {
		order := append([]string(nil), names...)
		if s%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			var buf bytes.Buffer
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace)
			cmd.Stdout = io.MultiWriter(stdout, &buf)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (set %d): %v\n", name, s+1, err)
				code = 1
			}
			run, err := parseChild(name, buf.Bytes())
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (set %d): %v\n", name, s+1, err)
				code = 1
				continue
			}
			runs = append(runs, run)
		}
	}
	if sets > 1 && !summarize(stdout, names, runs, cfg.trace) {
		code = 1
	}
	return code
}

// parseChild reads a run's digest line and result line from its output.
func parseChild(name string, out []byte) (childRun, error) {
	run := childRun{name: name}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "result_digest "); ok {
			run.digest = d
		}
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return run, fmt.Errorf("no result line: %w", err)
	}
	run.line = &line
	return run, nil
}

// summarize prints, per workload and metric, the median and quartiles over
// the sets, the spread (IQR over median, as Python's statistics.quantiles
// gives it) and the range (max − min over median), and whether the sets
// agree: range within the metric's bound. It reports false if the sets'
// result digests, all of the same seed, differ.
func summarize(w io.Writer, names []string, runs []childRun, trace bool) bool {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	ok := true
	fmt.Fprintf(w, "\n%-16s %-24s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "range", "bound")
	for _, name := range names {
		var mine []childRun
		for _, r := range runs {
			if r.name == name {
				mine = append(mine, r)
			}
		}
		if len(mine) < 2 {
			continue
		}
		for _, d := range defs {
			var vals []float64
			for _, r := range mine {
				if v, ok := r.line.Metrics[d.Name]; ok {
					vals = append(vals, v.Value)
				}
			}
			if len(vals) < 2 {
				continue
			}
			med := median(vals)
			q1, q3 := quartiles(vals)
			s := sorted(vals)
			spread, rng := (q3-q1)/med, (s[len(s)-1]-s[0])/med
			verdict := ""
			if d.Bound > 0 {
				verdict = fmt.Sprintf("%6.3f agree", d.Bound)
				if rng > d.Bound {
					verdict = fmt.Sprintf("%6.3f DISAGREE", d.Bound)
				}
			}
			fmt.Fprintf(w, "%-16s %-24s %12.6g %12.6g %12.6g %8.4f %8.4f %s\n", name, d.Name, med, q1, q3, spread, rng, verdict)
		}
		for _, r := range mine[1:] {
			if r.digest != mine[0].digest {
				fmt.Fprintf(w, "%-16s result digests differ across sets of the same seed\n", name)
				ok = false
				break
			}
		}
	}
	return ok
}
