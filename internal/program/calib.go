package program

// Closed-loop calibration threading: an optional calib.Model threaded
// through the pipeline mints one per-trial calibration instance alongside
// the nonideality instance, so every accuracy measurement sees the digitally
// corrected read-out (mapping.SetCalibration). The probe reads the fit spends
// are priced through the cost tier (cost.ProbeOps) so calibrated frontiers
// compare total energy, and the "swim+calib" policy ranks its write-verify
// budget by the residual error calibration cannot absorb.

import (
	"errors"
	"sort"

	"swim/internal/calib"
	"swim/internal/cost"
	"swim/internal/crossbar"
	"swim/internal/device"
	"swim/internal/eval"
	"swim/internal/mapping"
	"swim/internal/nn"
	"swim/internal/rng"
)

// WithCalibrationModel attaches a calibration model (package calib): every
// trial mints its own deterministic instance from the trial stream and every
// accuracy measurement observes the digitally corrected read-out — the
// model's per-column or per-tile affine fit, applied after nonideality
// degradation. The canonical spec is recorded in the Result, and with
// WithCostModel the probe-read budget is priced into the cost report
// (Report.Calibration). Calibration is bit-identical at any worker count and
// across trial-range shards: the fit's probe choices derive from the trial
// key by hashing, never from shared stream state.
func WithCalibrationModel(m calib.Model) Option {
	return func(p *Pipeline) error {
		if err := m.Validate(); err != nil {
			return err
		}
		p.calibModel = &m
		return nil
	}
}

// calibSpec returns the canonical calibration spec the pipeline was
// configured with, "" when calibration is off.
func (p *Pipeline) calibSpec() string {
	if p.calibModel == nil {
		return ""
	}
	return p.calibModel.Spec()
}

// calibProbeOps derives the operation counts of one calibration probe pass
// over the network's mapped matrices on the device's default crossbar
// configuration: per matrix, min(budget, inputs) one-hot probes, each
// driving one word line and reading the full output column range of its tile
// band. Deterministic in (network topology, device model, probe budget) —
// shard workers and the coordinator derive identical values.
func calibProbeOps(net *nn.Network, dev device.Model, probes int) cost.ProbeOps {
	cfg := crossbar.DefaultConfig(dev)
	var ops cost.ProbeOps
	for _, op := range eval.MatVecOps(net) {
		p := probes
		if op.In < p {
			p = op.In
		}
		outTiles := (op.Out + cfg.TileCols - 1) / cfg.TileCols
		ops.MatVecs += p * outTiles
		ops.DACs += p
		ops.ADCs += p * op.Out
	}
	return ops
}

// calibProbes returns the run's probe-pass pricing input, nil when
// calibration (or cost accounting) is off.
func (p *Pipeline) calibProbes(env *Env) *cost.ProbeOps {
	if p.calibModel == nil {
		return nil
	}
	ops := calibProbeOps(env.Net, env.Device, p.calibModel.Probes())
	return &ops
}

// residualPolicy is the compensation-aware "swim+calib" policy: it ranks
// weights by the sensitivity-weighted square of the RESIDUAL error — the
// deviation left after the active calibration (and nonideality) stage, read
// from the mapped state right before the first budget is spent — so the
// write-verify budget concentrates on the error the digital correction
// cannot absorb. Without a calibration model it degrades gracefully to
// ranking by the raw read-out error, and with neither calibration nor
// nonideality its residual is the programming noise itself.
type residualPolicy struct{}

func (residualPolicy) Name() string { return "swim+calib" }

func (residualPolicy) validateEnv(env *Env) error {
	if len(env.Hess) == 0 {
		return errors.New("swim+calib ranking needs sensitivities (use WithSensitivity or WithCalibration)")
	}
	return nil
}

func (p residualPolicy) NewTrial(env *Env, r *rng.Source) (Trial, error) {
	if err := p.validateEnv(env); err != nil {
		return nil, err
	}
	return &residualTrial{hess: env.Hess}, nil
}

// residualTrial defers its ranking to the first SpendTo/Step call, when the
// trial's device state (and fitted correction) exists: the order is the
// estimated loss impact hess[i]·residual[i]² descending, index-ascending on
// ties. From then on the embedded selectorTrial spends along that order.
// Computing it consumes no randomness — the residual read-out is
// deterministic given the trial's programmed state — so the policy's stream
// consumption matches the other selector policies.
type residualTrial struct {
	hess []float64
	selectorTrial
}

func (t *residualTrial) ensureOrder(mp *mapping.Mapped) {
	if t.order != nil {
		return
	}
	mp.SyncRead()
	res := mp.ProgrammedError()
	n := len(res)
	if len(t.hess) != n {
		panic("program: swim+calib sensitivity length mismatch")
	}
	score := make([]float64, n)
	for i, e := range res {
		score[i] = t.hess[i] * e * e
	}
	t.order = make([]int, n)
	for i := range t.order {
		t.order[i] = i
	}
	sort.SliceStable(t.order, func(a, b int) bool {
		return score[t.order[a]] > score[t.order[b]]
	})
}

func (t *residualTrial) SpendTo(mp *mapping.Mapped, nwc float64, r *rng.Source) {
	t.ensureOrder(mp)
	t.selectorTrial.SpendTo(mp, nwc, r)
}

func (t *residualTrial) Step(mp *mapping.Mapped, g float64, r *rng.Source) bool {
	t.ensureOrder(mp)
	return t.selectorTrial.Step(mp, g, r)
}

func init() {
	MustRegister(residualPolicy{})
}
