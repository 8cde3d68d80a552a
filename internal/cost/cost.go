// Package cost is the hardware cost tier: per-component energy/latency/area
// models for a crossbar accelerator, composed over the mapping geometry so
// every pipeline Result can report what a sweep actually costs in joules,
// seconds and silicon — the units behind the paper's motivation ("programming
// even a ResNet-18 ... can take more than one week"), which the accuracy-only
// reproduction never measured.
//
// The tier has three pieces:
//
//   - Component — one hardware block's per-operation cost (energy per
//     operation, latency per operation, area per instance). A Model bundles
//     the five components of a write-verify crossbar: the write pulse and the
//     verify read (programming), and the DAC, tile read pulse and ADC
//     (inference).
//
//   - Geometry — the static shape of a network mapped onto the fabric:
//     crossbar tiles, per-sample MatVec activations and converter operations,
//     derived once from the layer dimensions (package eval's MatVec op walk)
//     and the tile size. Geometry is pure data; it serializes into result
//     records so a merged shard run reports the same numbers as a local one.
//
//   - Report — the composition: programming energy/time per NWC grid point
//     (derived from the folded write-cycle aggregates — see below), static
//     per-sample inference energy/latency, and total array area.
//
// Models are registered by name (Register / Parse, a spec registry — see
// package spec), with built-in presets seeded from
// the cost tables of published accelerators; "rram" matches the programming
// numbers of device.DefaultCost.
//
// # Determinism
//
// A Report is a pure function of (model, geometry, folded cycle aggregates).
// The per-trial input — raw write-verify cycles — rides the Monte-Carlo
// engine's trial-order Welford reduction exactly like the accuracy series,
// and the energy/time aggregates are derived from those folded moments by
// exact scaling (a cycle count times a constant per-cycle cost), so cost
// blocks are bit-identical at any worker count and across trial-range shard
// merges wherever the cycle aggregates are.
package cost

import (
	"fmt"

	"swim/internal/stat"
)

// Component is one hardware block's per-operation cost.
type Component struct {
	// EnergyPJ is the energy of one operation, in picojoules.
	EnergyPJ float64
	// LatencyNS is the duration of one operation, in nanoseconds.
	LatencyNS float64
	// AreaUM2 is the silicon area of one instance, in square micrometres.
	AreaUM2 float64
}

// Model is a full per-component cost model for a write-verify crossbar
// accelerator. Build one with Parse (or a registered builder); the zero
// value is not meaningful.
type Model struct {
	// Write is one write (set/reset) pulse applied to one device.
	Write Component
	// Verify is one verify read of one device (the read-back of a
	// write-verify cycle).
	Verify Component
	// DAC is one word-line input conversion (per active row per MatVec).
	DAC Component
	// Read is one tile read pulse — a whole-tile analog MatVec activation.
	Read Component
	// ADC is one bit-line output conversion (per active column per MatVec).
	ADC Component
	// CellAreaUM2 is the area of one crossbar cell (device + selector).
	CellAreaUM2 float64
	// Parallelism is how many devices program concurrently (1 models the
	// paper's fully serial write-verify accounting).
	Parallelism int

	spec string // canonical registry spec, set by builders
}

// Spec returns the model's canonical spec string — the registry name with
// every parameter spelled out in sorted order. Parse(Spec()) rebuilds the
// identical model, which is what lets the spec act as a cache-key axis.
func (m Model) Spec() string { return m.spec }

// Validate checks the model parameters.
func (m Model) Validate() error {
	for _, c := range []struct {
		name string
		c    Component
	}{
		{"write", m.Write}, {"verify", m.Verify},
		{"dac", m.DAC}, {"read", m.Read}, {"adc", m.ADC},
	} {
		if c.c.EnergyPJ < 0 || c.c.LatencyNS < 0 || c.c.AreaUM2 < 0 {
			return fmt.Errorf("cost: %s component has negative cost (%+v)", c.name, c.c)
		}
	}
	if m.CellAreaUM2 < 0 {
		return fmt.Errorf("cost: negative cell area %g", m.CellAreaUM2)
	}
	if m.Parallelism < 1 {
		return fmt.Errorf("cost: parallelism %d < 1", m.Parallelism)
	}
	return nil
}

// Geometry is the static shape of one network mapped onto the crossbar
// fabric — everything a cost composition needs besides the per-trial cycle
// counts. It is derived once per run (deterministically, from the layer
// dimensions and tile size) and travels with shard records so distributed
// merges rebuild identical reports.
type Geometry struct {
	// Weights is the number of crossbar-mapped weights (conv/FC matrices).
	Weights int `json:"weights"`
	// Slices is the bit-slice device count per weight (device.NumDevices).
	Slices int `json:"slices"`
	// TileRows and TileCols are the physical array bounds (word lines ×
	// bit lines).
	TileRows int `json:"tile_rows"`
	TileCols int `json:"tile_cols"`
	// Tiles is the total tile count across all mapped layers.
	Tiles int `json:"tiles"`
	// MatVecs is the number of tile read activations per input sample.
	MatVecs int `json:"matvecs"`
	// DACs is the number of word-line input conversions per input sample.
	DACs int `json:"dacs"`
	// ADCs is the number of bit-line output conversions per input sample.
	ADCs int `json:"adcs"`
}

// Devices returns the total programmable device count (weights × slices).
func (g Geometry) Devices() int { return g.Weights * g.Slices }

// PointCost is the programming cost at one NWC grid target, aggregated over
// the Monte-Carlo trials. The aggregates are derived from the raw
// write-cycle Welford moments by exact scaling, so they carry the same trial
// count and fold identically everywhere the cycle aggregates do.
type PointCost struct {
	// Target is the grid's normalized-write-cycle budget.
	Target float64
	// EnergyUJ aggregates programming energy, in microjoules: cycles ×
	// (write pulse + verify read energy).
	EnergyUJ *stat.Welford
	// TimeMS aggregates programming wall-clock, in milliseconds: cycles ×
	// (write pulse + verify read latency) ÷ parallelism.
	TimeMS *stat.Welford
}

// Report is the composed hardware cost of one grid-budget run: per-point
// programming cost from the cycle aggregates, plus the static per-sample
// inference cost and total array area from the geometry.
type Report struct {
	// Model is the canonical cost-model spec that produced the report.
	Model string
	// Geometry is the static mapping geometry the report composed over.
	Geometry Geometry
	// Points is the per-grid-point programming cost, in target order.
	Points []PointCost
	// InferenceEnergyNJ is the energy of one input sample's forward pass,
	// in nanojoules: per-sample DAC + tile read + ADC operations.
	InferenceEnergyNJ float64
	// InferenceLatencyUS is the latency of one input sample's forward pass,
	// in microseconds, with tile activations fully serialized (each one DAC
	// phase + read pulse + ADC phase) — the conservative no-pipelining bound.
	InferenceLatencyUS float64
	// AreaMM2 is the total array area in square millimetres: per tile, a
	// full complement of row DACs and column ADCs plus the cell matrix.
	AreaMM2 float64
	// Calibration prices the run's calibration probe pass (package calib);
	// nil when the run had no calibration model.
	Calibration *CalibCost
}

// ProbeOps counts the hardware operations of one calibration probe pass over
// the mapped network: per matrix, each probe drives one word line (one DAC
// conversion), activates the tile band holding that input row, and converts
// every output bit line. Like Geometry it is pure data, derived
// deterministically from the network topology and the probe budget, and
// travels with shard records so distributed merges price calibration
// identically to local runs.
type ProbeOps struct {
	// MatVecs is the number of tile read activations in one probe pass.
	MatVecs int `json:"matvecs"`
	// DACs is the number of word-line input conversions in one probe pass.
	DACs int `json:"dacs"`
	// ADCs is the number of bit-line output conversions in one probe pass.
	ADCs int `json:"adcs"`
}

// CalibCost is the priced calibration block of a Report: the probe-read
// operations of one calibration pass and their energy/latency under the
// report's converter costs. One pass runs per trial (after programming), so
// the energy adds to each trial's programming energy when comparing total
// budgets — the accuracy-vs-total-energy frontier swim-pareto traces.
type CalibCost struct {
	// Model is the canonical calibration-model spec that was priced.
	Model string
	// Ops counts the probe pass's hardware operations.
	Ops ProbeOps
	// EnergyNJ is the energy of one calibration pass, in nanojoules:
	// per-probe DAC + tile read + ADC operations.
	EnergyNJ float64
	// LatencyUS is the latency of one calibration pass with serialized tile
	// activations, in microseconds.
	LatencyUS float64
}

// CycleEnergyPJ returns the energy of one write-verify cycle (one write
// pulse plus one verify read), in picojoules.
func (m Model) CycleEnergyPJ() float64 { return m.Write.EnergyPJ + m.Verify.EnergyPJ }

// CycleTimeNS returns the wall-clock of one write-verify cycle divided by
// the programming parallelism, in nanoseconds.
func (m Model) CycleTimeNS() float64 {
	return (m.Write.LatencyNS + m.Verify.LatencyNS) / float64(m.Parallelism)
}

// SampleEnergyPJ returns the inference energy of one input sample, in
// picojoules.
func (m Model) SampleEnergyPJ(g Geometry) float64 {
	return float64(g.DACs)*m.DAC.EnergyPJ +
		float64(g.MatVecs)*m.Read.EnergyPJ +
		float64(g.ADCs)*m.ADC.EnergyPJ
}

// SampleLatencyNS returns the inference latency of one input sample with
// serialized tile activations, in nanoseconds.
func (m Model) SampleLatencyNS(g Geometry) float64 {
	return float64(g.MatVecs) * (m.DAC.LatencyNS + m.Read.LatencyNS + m.ADC.LatencyNS)
}

// AreaUM2 returns the total array area, in square micrometres.
func (m Model) AreaUM2(g Geometry) float64 {
	perTile := float64(g.TileRows)*m.DAC.AreaUM2 +
		float64(g.TileCols)*m.ADC.AreaUM2 +
		float64(g.TileRows)*float64(g.TileCols)*m.CellAreaUM2
	return float64(g.Tiles) * perTile
}

// CalibrationCost prices one calibration probe pass under the model's
// converter and read costs: spec is the calibration model's canonical spec
// (recorded for observability), ops the pass's operation counts. Like
// Report, the call is a pure function of its inputs.
func (m Model) CalibrationCost(spec string, ops ProbeOps) *CalibCost {
	energyPJ := float64(ops.DACs)*m.DAC.EnergyPJ +
		float64(ops.MatVecs)*m.Read.EnergyPJ +
		float64(ops.ADCs)*m.ADC.EnergyPJ
	latencyNS := float64(ops.MatVecs) * (m.DAC.LatencyNS + m.Read.LatencyNS + m.ADC.LatencyNS)
	return &CalibCost{
		Model:     spec,
		Ops:       ops,
		EnergyNJ:  energyPJ * 1e-3,
		LatencyUS: latencyNS * 1e-3,
	}
}

// scaled derives the Welford moments of k·X from the folded moments of X —
// exact for a constant scale (n is unchanged, the mean scales by k, the
// second central moment by k²), so the result is a pure function of the
// input aggregate and bit-identical wherever that aggregate is.
func scaled(w *stat.Welford, k float64) *stat.Welford {
	if w == nil {
		return nil
	}
	return stat.FromMoments(w.N(), k*w.Mean(), k*k*w.M2())
}

// Report composes the model over a run's geometry and folded cycle
// aggregates: cycles[i] holds the raw write-verify cycle moments at
// targets[i] (program.Point.Cycles). The call is deterministic — no
// randomness, no iteration-order dependence — which is what extends the
// bit-identical contract from the cycle aggregates to the cost block.
func (m Model) Report(g Geometry, targets []float64, cycles []*stat.Welford) *Report {
	rep := &Report{
		Model:              m.spec,
		Geometry:           g,
		InferenceEnergyNJ:  m.SampleEnergyPJ(g) * 1e-3,
		InferenceLatencyUS: m.SampleLatencyNS(g) * 1e-3,
		AreaMM2:            m.AreaUM2(g) * 1e-6,
	}
	kE := m.CycleEnergyPJ() * 1e-6 // pJ per cycle → µJ
	kT := m.CycleTimeNS() * 1e-6   // ns per cycle → ms
	for i, target := range targets {
		var w *stat.Welford
		if i < len(cycles) {
			w = cycles[i]
		}
		rep.Points = append(rep.Points, PointCost{
			Target:   target,
			EnergyUJ: scaled(w, kE),
			TimeMS:   scaled(w, kT),
		})
	}
	return rep
}
