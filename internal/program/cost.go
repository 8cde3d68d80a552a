package program

// Hardware cost composition: an optional cost.Model threaded through the
// pipeline turns every grid-budget Result into a cost.Report — programming
// energy/time from the folded raw write-cycle aggregates, inference
// energy/latency from the network's MatVec workload, and array area from
// the crossbar tiling. Everything here is a deterministic post-pass over
// already-deterministic aggregates, so cost blocks inherit the engine's
// bit-identical-at-any-worker-count contract for free (shard merges run the
// exact same applyCost over the exact same folded moments).

import (
	"swim/internal/cost"
	"swim/internal/crossbar"
	"swim/internal/device"
	"swim/internal/eval"
	"swim/internal/nn"
	"swim/internal/stat"
)

// WithCostModel attaches a hardware cost model (package cost): grid-budget
// Results gain a Cost report composed over the run's mapping geometry and
// per-point write-cycle aggregates. Cost accounting is a pure post-pass —
// it reads the folded aggregates after the Monte-Carlo run and never
// touches the per-trial hot path, so accuracy bits and eval allocations are
// unchanged with or without it.
func WithCostModel(m cost.Model) Option {
	return func(p *Pipeline) error {
		if err := m.Validate(); err != nil {
			return err
		}
		p.costModel = &m
		return nil
	}
}

// costGeometry derives the static mapping geometry of a network on the
// device's default crossbar configuration: per mapped layer, the im2col
// matrix [Out, In] tiles onto TileCols×TileRows arrays, each tile fires
// once per MatVec application, and every application converts In word-line
// inputs and Out bit-line outputs. Deterministic in (network topology,
// device model) — both shard workers and the coordinator derive identical
// values, and the serialized form rides shard records as a cross-check.
func costGeometry(net *nn.Network, dev device.Model) cost.Geometry {
	cfg := crossbar.DefaultConfig(dev)
	g := cost.Geometry{
		Slices:   dev.NumDevices(),
		TileRows: cfg.TileRows,
		TileCols: cfg.TileCols,
	}
	for _, op := range eval.MatVecOps(net) {
		tiles := ((op.Out + cfg.TileCols - 1) / cfg.TileCols) *
			((op.In + cfg.TileRows - 1) / cfg.TileRows)
		g.Weights += op.In * op.Out
		g.Tiles += tiles
		g.MatVecs += tiles * op.PerSample
		g.DACs += op.In * op.PerSample
		g.ADCs += op.Out * op.PerSample
	}
	return g
}

// applyCost composes the model over a grid Result's folded cycle
// aggregates, pricing the calibration probe pass when one is configured
// (calibSpec and probes both set). Shard.fold calls it for both a local Run
// and MergeShards, so the two paths run the identical composition.
func applyCost(res *Result, m cost.Model, geom cost.Geometry, calibSpec string, probes *cost.ProbeOps) {
	targets := make([]float64, len(res.Points))
	cycles := make([]*stat.Welford, len(res.Points))
	for i, pt := range res.Points {
		targets[i] = pt.Target
		cycles[i] = pt.Cycles
	}
	res.Cost = m.Report(geom, targets, cycles)
	if calibSpec != "" && probes != nil {
		res.Cost.Calibration = m.CalibrationCost(calibSpec, *probes)
	}
}
