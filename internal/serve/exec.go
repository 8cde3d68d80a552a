package serve

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"swim/internal/calib"
	"swim/internal/cost"
	"swim/internal/experiments"
	"swim/internal/mc"
	"swim/internal/program"
	"swim/internal/serialize"
)

// maxTrials caps a request's trial count, keeping one request from
// monopolizing the daemon for hours; maxShardReplyBytes is sized from it.
const maxTrials = 100000

// normalize validates a client request and fills every defaulted field, so
// the canonical key is computed over the fully explicit computation. A
// request and its explicit normalization therefore share a cache entry, and
// the daemon refuses what it cannot faithfully execute (unknown kinds,
// workloads, policies, future fields).
func (s *Server) normalize(req *serialize.RequestRecord) (*serialize.RequestRecord, error) {
	n := *req // shallow copy; slices are replaced wholesale below when defaulted
	if len(n.Extra) > 0 {
		keys := make([]string, 0, len(n.Extra))
		for k := range n.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return nil, fmt.Errorf("unknown request fields %v (daemon speaks request version %d)",
			keys, serialize.RequestVersion)
	}
	if n.Version == 0 {
		n.Version = serialize.RequestVersion
	}
	if n.Version != serialize.RequestVersion {
		return nil, fmt.Errorf("unsupported request version %d (daemon speaks %d)", n.Version, serialize.RequestVersion)
	}
	if n.Kind == "" {
		n.Kind = serialize.KindSweep
	}
	if n.Workload == "" {
		if n.Kind == serialize.KindFig2 {
			n.Workload = "convnet"
		} else {
			n.Workload = "lenet"
		}
	}
	if _, ok := s.workloads[n.Workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (serving: %s)", n.Workload, strings.Join(s.workloadNames(), ", "))
	}

	def := experiments.DefaultScenarioConfig()
	switch n.Kind {
	case serialize.KindSweep:
		n.Sigmas = defaultFloats(n.Sigmas, []float64{experiments.SigmaHigh})
		n.Policies = defaultStrings(n.Policies, []string{"swim"})
		n.NWCs = defaultFloats(n.NWCs, def.NWCs)
		n.Times = defaultFloats(n.Times, []float64{0})
	case serialize.KindScenario:
		n.Sigmas = defaultFloats(n.Sigmas, []float64{experiments.SigmaHigh})
		n.Policies = defaultStrings(n.Policies, def.Policies)
		n.NWCs = defaultFloats(n.NWCs, def.NWCs)
		n.Times = defaultFloats(n.Times, def.Times)
	case serialize.KindTable1:
		n.Sigmas = defaultFloats(n.Sigmas, experiments.SigmaGrid())
		n.Policies = defaultStrings(n.Policies, experiments.Methods)
		n.NWCs = defaultFloats(n.NWCs, experiments.DefaultNWCs())
		n.Times = defaultFloats(n.Times, []float64{0})
	case serialize.KindFig2:
		n.Sigmas = defaultFloats(n.Sigmas, []float64{experiments.SigmaHigh})
		n.Policies = defaultStrings(n.Policies, experiments.Methods)
		n.NWCs = defaultFloats(n.NWCs, experiments.DefaultNWCs())
		n.Times = defaultFloats(n.Times, []float64{0})
	default:
		return nil, fmt.Errorf("unknown request kind %q (want %s, %s, %s or %s)", n.Kind,
			serialize.KindSweep, serialize.KindScenario, serialize.KindTable1, serialize.KindFig2)
	}
	if n.Seed == 0 {
		n.Seed = def.Seed
	}
	if n.Trials <= 0 {
		n.Trials = def.Trials
	}
	if n.Trials > maxTrials {
		return nil, fmt.Errorf("trials %d exceeds the daemon's cap %d", n.Trials, maxTrials)
	}
	if n.EvalBatch <= 0 {
		n.EvalBatch = def.EvalBatch
	}

	for _, sigma := range n.Sigmas {
		if sigma <= 0 {
			return nil, fmt.Errorf("device sigma must be positive, got %g", sigma)
		}
	}
	if err := experiments.CheckGrid(n.NWCs, n.Times, n.Policies); err != nil {
		return nil, err
	}
	// Re-render the scenario list canonically (defaults filled in, "none"
	// spelled out) so spelling variants of the same stack share a key.
	scenarios, err := experiments.ParseScenarios(n.Scenarios)
	if err != nil {
		return nil, err
	}
	if len(scenarios) == 0 {
		n.Scenarios = "none"
	} else {
		specs := make([]string, len(scenarios))
		for i, sc := range scenarios {
			specs[i] = sc.Spec
		}
		n.Scenarios = strings.Join(specs, ";")
	}
	// Canonicalize the cost axis the same way: "none" collapses to the
	// empty (disabled) form, anything else re-renders as the fully
	// spelled-out model spec, so "rram" and its explicit form share a key
	// while every distinct model gets its own.
	switch c := strings.TrimSpace(n.Cost); c {
	case "", "none":
		n.Cost = ""
	default:
		m, err := cost.Parse(c)
		if err != nil {
			return nil, err
		}
		n.Cost = m.Spec()
	}
	// Canonicalize the calibration axis like the cost axis: "none" collapses
	// to the empty (disabled) form, anything else re-renders fully spelled
	// out.
	switch c := strings.TrimSpace(n.Calib); c {
	case "", "none":
		n.Calib = ""
	default:
		m, err := calib.Parse(c)
		if err != nil {
			return nil, err
		}
		n.Calib = m.Spec()
	}
	return &n, nil
}

func defaultFloats(v, def []float64) []float64 {
	if len(v) > 0 {
		return v
	}
	return append([]float64(nil), def...)
}

func defaultStrings(v, def []string) []string {
	if len(v) > 0 {
		return v
	}
	return append([]string(nil), def...)
}

// resolve returns what a normalized request computes: its workload (built or
// restored once and cached), its scenarios and the sweep configuration its
// fields set. execute and executeShard both start here.
func (s *Server) resolve(req *serialize.RequestRecord) (*experiments.Workload, []experiments.Scenario, experiments.ScenarioConfig, error) {
	cfg := experiments.ScenarioConfig{
		NWCs:      req.NWCs,
		Times:     req.Times,
		Policies:  req.Policies,
		Trials:    req.Trials,
		Seed:      req.Seed,
		EvalBatch: req.EvalBatch,
		Cost:      req.Cost,
		Calib:     req.Calib,
	}
	scenarios, err := experiments.ParseScenarios(req.Scenarios)
	if err != nil {
		return nil, nil, cfg, err
	}
	w, err := s.workload(req.Workload)
	return w, scenarios, cfg, err
}

// execute runs one normalized request to completion: the workload is built
// (or restored) once and cached, then every σ-slice of the request grid runs
// through experiments.ScenarioResults with the job's fair-share worker gate,
// which also counts the job's progress (Share.TrialDone). The resulting
// envelope is bit-identical to the equivalent CLI invocation at any worker
// split, by the mc determinism contract — the gate's observer sees trials
// only after the fact and cannot perturb them.
func (s *Server) execute(ctx context.Context, req *serialize.RequestRecord, gate mc.Gate) (*serialize.ResultEnvelope, error) {
	w, scenarios, cfg, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	env := &serialize.ResultEnvelope{}
	for _, sigma := range req.Sigmas {
		results, err := experiments.ScenarioResults(ctx, w, sigma, scenarios, cfg,
			program.WithWorkers(s.cfg.TotalWorkers),
			program.WithWorkerGate(gate))
		if err != nil {
			return nil, err
		}
		env.Cells = append(env.Cells, experiments.EnvelopeCells(req.Workload, sigma, results)...)
	}
	return env, nil
}
