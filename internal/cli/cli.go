// Package cli is the front end the cmd/swim-* binaries share. It registers
// the shared flags, resolves every registry flag by one convention, parses
// comma lists, builds a workload by name from experiments.Workloads and
// writes the -json result envelope, so each main keeps only its own flags,
// its experiment call and its printing.
//
// # Exit codes
//
// A registry flag (-nonideal, -kernel, -calib, -cost, -policies) set to
// "list" prints the registered names and exits 0. A malformed flag value
// prints "<binary>: <error>" to stderr and exits 2; a run that fails prints
// the same line and exits 1.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"swim/internal/calib"
	"swim/internal/cost"
	"swim/internal/experiments"
	"swim/internal/kernel"
	"swim/internal/mc"
	"swim/internal/nonideal"
	"swim/internal/program"
	"swim/internal/serialize"
)

// Flag selects shared flags for New; values combine with |.
type Flag uint

// The shared flags.
const (
	// Trials registers -trials: Monte-Carlo trials, 0 = the experiment's
	// default.
	Trials Flag = 1 << iota
	// Workers registers -workers and applies it with mc.SetWorkers.
	Workers
	// State registers -state and applies it with experiments.SetStateDir.
	State
	// Nonideal registers -nonideal: one '+'-stacked nonideality scenario.
	Nonideal
	// ReadTime registers -readtime, the read time -nonideal applies at.
	ReadTime
	// Scenarios registers -nonideal, in place of Nonideal, as a
	// ';'-separated list of scenarios.
	Scenarios
	// Kernel registers -kernel: a kernel-backend spec.
	Kernel
	// Calib registers -calib: a calibration-model spec.
	Calib
	// Cost registers -cost: a hardware cost-model spec, which must select
	// a model.
	Cost
	// ListPolicies registers -list-policies, which prints the registered
	// policy names.
	ListPolicies
	policies // -policies, registered by Command.Policies
)

// Command is one binary's front end. New registers the shared flags it
// takes; Parse fills the exported fields from them.
type Command struct {
	// Trials is -trials (0 = the experiment's default).
	Trials int
	// State is -state, the workload state directory.
	State string
	// Nonideal is the -nonideal stack; ReadTime is -readtime.
	Nonideal []nonideal.Nonideality
	ReadTime float64
	// Scenarios is the -nonideal scenario list of Scenarios.
	Scenarios []experiments.Scenario
	// Kernel is the canonical -kernel spec, "" when the flag is empty.
	Kernel string

	name  string
	flags Flag
	fs    *flag.FlagSet
	args  []string

	workers                                               int
	listPolicies                                          bool
	nonidealFlag, kernelFlag, calibFlag, costFlag, policy string

	backend        kernel.Backend
	calib, cost    string
	policies       []string
	stdout, stderr io.Writer
	exit           func(code int)
}

// New returns the front end of the binary name and registers the shared
// flags it takes on the command line. Register the binary's own flags, then
// call Parse.
func New(name string, flags Flag) *Command {
	return newCommand(name, flags, flag.CommandLine, os.Args[1:])
}

func newCommand(name string, flags Flag, fs *flag.FlagSet, args []string) *Command {
	c := &Command{name: name, flags: flags, fs: fs, args: args,
		stdout: os.Stdout, stderr: os.Stderr, exit: os.Exit}
	if c.has(Trials) {
		fs.IntVar(&c.Trials, "trials", 0, "Monte-Carlo trials (0 = default / SWIM_MC)")
	}
	if c.has(Workers) {
		fs.IntVar(&c.workers, "workers", 0, "Monte-Carlo worker goroutines (0 = SWIM_WORKERS or all CPUs)")
	}
	if c.has(State) {
		fs.StringVar(&c.State, "state", "",
			"directory of serialized workload states: restore instead of retraining, persist after training (swim-train saves its model there)")
	}
	if c.has(Nonideal) {
		fs.StringVar(&c.nonidealFlag, "nonideal", "",
			"'+'-stacked device-nonideality scenario applied at read time ('list' prints the registered models)")
	}
	if c.has(ReadTime) {
		fs.Float64Var(&c.ReadTime, "readtime", 0, "read time in seconds after programming for -nonideal")
	}
	if c.has(Scenarios) {
		fs.StringVar(&c.nonidealFlag, "nonideal", "none;drift",
			"';'-separated nonideality scenarios, models stacked with '+' ('list' prints registered models)")
	}
	if c.has(Kernel) {
		fs.StringVar(&c.kernelFlag, "kernel", "",
			"kernel backend for the eval plans' dense primitives (bit-identical to scalar; 'list' prints registered backends)")
	}
	if c.has(Calib) {
		fs.StringVar(&c.calibFlag, "calib", "",
			"calibration model fitting a digital read-out correction, e.g. gainoffset or pertile:probes=16 ('list' prints registered models)")
	}
	if c.has(Cost) {
		fs.StringVar(&c.costFlag, "cost", "rram",
			"hardware cost model spec, e.g. rram or rram:write_pj=12,par=64 ('list' prints the registered presets)")
	}
	if c.has(ListPolicies) {
		fs.BoolVar(&c.listPolicies, "list-policies", false,
			"print the registered programming policies (the -policy values other tools accept) and exit")
	}
	return c
}

// Policies registers -policies, a comma-separated list of registry
// policies, with the default def ("" = the experiment's default set).
func (c *Command) Policies(def string) {
	c.flags |= policies
	c.fs.StringVar(&c.policy, "policies", def,
		"comma-separated programming policies from the registry; empty = the experiment's default set ('list' prints the registered names)")
}

func (c *Command) has(f Flag) bool { return c.flags&f != 0 }

// Parse parses the command line, applies -workers and -state, and resolves
// every registry flag the binary takes (see the package comment).
func (c *Command) Parse() {
	if err := c.fs.Parse(c.args); err != nil {
		c.exit(2) // the flag set has printed the error and the usage
	}
	if c.has(Workers) {
		mc.SetWorkers(c.workers)
	}
	if c.has(State) {
		experiments.SetStateDir(c.State)
	}
	if c.listPolicies || (c.has(policies) && c.policy == "list") {
		c.list(strings.Join(program.Names(), "\n"))
	}
	if c.has(policies) {
		names, err := program.ResolveNames(c.policy)
		c.CheckFlag(err)
		c.policies = names
	}
	if c.has(Nonideal) {
		stack, listing, err := nonideal.FromFlag(c.nonidealFlag)
		c.registry(listing, err)
		c.Nonideal = stack
	}
	if c.has(Scenarios) {
		// A list of stacks, not the one stack nonideal.FromFlag parses,
		// but "list" reads as it does for every other -nonideal.
		if strings.TrimSpace(c.nonidealFlag) == "list" {
			c.list(strings.Join(nonideal.Registered(), "\n"))
		}
		scenarios, err := experiments.ParseScenarios(c.nonidealFlag)
		c.CheckFlag(err)
		c.Scenarios = scenarios
	}
	if c.has(Kernel) {
		k, listing, err := kernel.FromFlag(c.kernelFlag)
		c.registry(listing, err)
		if c.kernelFlag != "" {
			c.backend, c.Kernel = k, k.Spec()
		}
	}
	if c.has(Calib) {
		m, ok, listing, err := calib.FromFlag(c.calibFlag)
		c.registry(listing, err)
		if ok {
			c.calib = m.Spec()
		}
	}
	if c.has(Cost) {
		m, ok, listing, err := cost.FromFlag(c.costFlag)
		c.registry(listing, err)
		if !ok {
			c.CheckFlag(fmt.Errorf("a cost model is required (-cost %q disables cost accounting; try -cost rram)", c.costFlag))
		}
		c.cost = m.Spec()
	}
}

// registry applies the registry-flag convention to one FromFlag result: an
// error exits 2, a listing prints and exits 0.
func (c *Command) registry(listing string, err error) {
	c.CheckFlag(err)
	if listing != "" {
		c.list(listing)
	}
}

func (c *Command) list(names string) {
	fmt.Fprintln(c.stdout, names)
	c.exit(0)
}

// Check ends a failed run: a non-nil err prints "<binary>: err" to stderr
// and exits 1.
func (c *Command) Check(err error) { c.fail(1, err) }

// CheckFlag is Check for a malformed flag value: it exits 2.
func (c *Command) CheckFlag(err error) { c.fail(2, err) }

func (c *Command) fail(code int, err error) {
	if err != nil {
		fmt.Fprintf(c.stderr, "%s: %v\n", c.name, err)
		c.exit(code)
	}
}

// Sweep returns experiments.DefaultSweep with -trials, -nonideal,
// -readtime, -kernel, -calib and -policies applied.
func (c *Command) Sweep() experiments.SweepConfig {
	cfg := experiments.DefaultSweep()
	cfg.Scenario = experiments.ReadScenario{Models: c.Nonideal, ReadTime: c.ReadTime}
	cfg.Kernel, cfg.Calib, cfg.Policies = c.Kernel, c.calib, c.policies
	if c.Trials > 0 {
		cfg.Trials = c.Trials
	}
	return cfg
}

// ScenarioConfig returns experiments.DefaultScenarioConfig with -trials,
// -kernel, -calib, -cost and -policies applied.
func (c *Command) ScenarioConfig() experiments.ScenarioConfig {
	cfg := experiments.DefaultScenarioConfig()
	cfg.Kernel, cfg.Calib, cfg.Cost = c.Kernel, c.calib, c.cost
	if c.policies != nil {
		cfg.Policies = c.policies
	}
	if c.Trials > 0 {
		cfg.Trials = c.Trials
	}
	return cfg
}

// ReadScenario returns the -nonideal stack read at -readtime on the -kernel
// backend (nil = kernel.Default()).
func (c *Command) ReadScenario() experiments.ReadScenario {
	return experiments.ReadScenario{Models: c.Nonideal, ReadTime: c.ReadTime, Kernel: c.backend}
}

// Workload builds the experiments.Workloads entry called name, first
// printing its announcement to w. An unknown name is a malformed flag value.
func (c *Command) Workload(name string, w io.Writer) *experiments.Workload {
	var names []string
	for _, nw := range experiments.Workloads() {
		if nw.Name == name {
			fmt.Fprintln(w, nw.Announce)
			return nw.Build()
		}
		names = append(names, nw.Name)
	}
	last := len(names) - 1
	c.CheckFlag(fmt.Errorf("unknown workload %q (want %s or %s)", name, strings.Join(names[:last], ", "), names[last]))
	return nil
}

// Floats parses a comma-separated list of numbers, nil for an empty one. A
// bad number is a malformed flag value, reported as "bad <noun>".
func (c *Command) Floats(noun, csv string) []float64 {
	if strings.TrimSpace(csv) == "" {
		return nil
	}
	var out []float64
	for _, s := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			c.CheckFlag(fmt.Errorf("bad %s %q: %v", noun, s, err))
		}
		out = append(out, v)
	}
	return out
}

// List splits a comma-separated flag value into its trimmed, non-empty
// items.
func List(csv string) []string {
	var out []string
	for _, s := range strings.Split(csv, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// Human returns where a binary that writes its -json envelope to jsonPath
// prints its report: stderr when the envelope owns stdout ("-"), stdout
// otherwise.
func (c *Command) Human(jsonPath string) io.Writer {
	if jsonPath == "-" {
		return c.stderr
	}
	return c.stdout
}

// WriteEnvelope writes env as a serialized result envelope to path ("-" =
// stdout). A failed write or close fails the run.
func (c *Command) WriteEnvelope(path string, env *serialize.ResultEnvelope) {
	if path == "-" {
		c.Check(serialize.EncodeEnvelope(c.stdout, env))
		return
	}
	f, err := os.Create(path)
	c.Check(err)
	err = serialize.EncodeEnvelope(f, env)
	// A failed close can lose buffered bytes: report it, not just encode
	// errors.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	c.Check(err)
}
