package cost

import (
	"fmt"
	"math"

	"swim/internal/spec"
)

// models is the cost-preset registry (see package spec for the grammar).
var models = spec.New[Model]("cost", "model")

// Register adds a model builder under name; registering a name twice is an
// error.
func Register(name string, b spec.Builder[Model]) error { return models.Register(name, b) }

// Registered returns the registered preset names, sorted.
func Registered() []string { return models.Names() }

// Parse builds one model from a spec string: a registered preset name
// optionally followed by colon-separated parameters, e.g. "rram" or
// "rram:write_pj=12,par=64". Every model's Spec() round-trips through Parse
// to an identical model — the canonical spec spells out every resolved
// parameter, so two daemons that parse the same spec agree bit-for-bit.
func Parse(s string) (Model, error) { return models.Parse(s) }

// FromFlag resolves the CLIs' shared -cost flag convention: the literal
// "list" requests the registered-preset listing (returned in listing, with
// no model); the empty string and the literal "none" disable cost
// accounting (ok reports false); anything else parses as a model spec.
func FromFlag(s string) (m Model, ok bool, listing string, err error) { return models.FromFlag(s) }

// componentModel assembles a Model from the flat parameter scheme every
// preset shares — write_/verify_/dac_/adc_/read_ energies and latencies,
// dac_/adc_/cell areas, and the programming parallelism — with per-preset
// defaults supplied by the caller (which may pre-resolve derived keys such
// as lightening's bits/fs_gsps before delegating here).
func componentModel(name string, p *spec.Params, def map[string]float64) (Model, error) {
	d := func(key string) float64 { return p.Get(key, def[key]) }
	m := Model{
		Write:       Component{EnergyPJ: d("write_pj"), LatencyNS: d("write_ns")},
		Verify:      Component{EnergyPJ: d("verify_pj"), LatencyNS: d("verify_ns")},
		DAC:         Component{EnergyPJ: d("dac_pj"), LatencyNS: d("dac_ns"), AreaUM2: d("dac_um2")},
		ADC:         Component{EnergyPJ: d("adc_pj"), LatencyNS: d("adc_ns"), AreaUM2: d("adc_um2")},
		Read:        Component{EnergyPJ: d("read_pj"), LatencyNS: d("read_ns")},
		CellAreaUM2: d("cell_um2"),
	}
	par := d("par")
	if par < 1 || par != math.Trunc(par) {
		return Model{}, fmt.Errorf("model %q needs integer par >= 1 (got %g)", name, par)
	}
	m.Parallelism = int(par)
	m.spec = p.Spec()
	if err := m.Validate(); err != nil {
		return Model{}, err
	}
	return m, nil
}

// fom is the DAC power figure of merit 2^N/(N+1) from the
// Lightening-Transformer cost tables: scaling a converter's resolution
// rescales its dynamic power by fom(N)/fom(N0) at fixed sample rate.
func fom(bits float64) float64 { return math.Exp2(bits) / (bits + 1) }

func init() {
	// rram: a write-verify RRAM tile whose programming numbers match
	// device.DefaultCost (100 ns / 10 pJ write pulse, 10 ns verify read,
	// serial programming), with mid-range 6-bit DAC / 8-bit SAR ADC
	// peripheral costs and a 4F² 0.04 µm² 1T1R cell.
	models.MustRegister("rram", func(p *spec.Params) (Model, error) {
		return componentModel("rram", p, map[string]float64{
			"write_pj": 10, "write_ns": 100,
			"verify_pj": 1, "verify_ns": 10,
			"dac_pj": 2, "dac_ns": 1, "dac_um2": 500,
			"adc_pj": 2, "adc_ns": 1, "adc_um2": 3000,
			"read_pj": 1, "read_ns": 10,
			"cell_um2": 0.04,
			"par":      1,
		})
	})
	// lightening: input converters from the Lightening-Transformer DAC
	// table — 8-bit 14 GS/s 50 mW in 11000 µm², so 50 mW ÷ 14 GS/s ≈
	// 3.57 pJ per conversion and 1/14 ns per sample — with the
	// bits/fs_gsps knobs rescaling power through the 2^N/(N+1) figure of
	// merit. The crossbar write path and ADC side keep the rram defaults.
	models.MustRegister("lightening", func(p *spec.Params) (Model, error) {
		bits := p.Get("bits", 8)
		fs := p.Get("fs_gsps", 14)
		if bits < 1 || bits > 16 || bits != math.Trunc(bits) {
			return Model{}, fmt.Errorf("model %q needs integer bits in [1, 16] (got %g)", "lightening", bits)
		}
		if fs <= 0 {
			return Model{}, fmt.Errorf("model %q needs fs_gsps > 0 (got %g)", "lightening", fs)
		}
		dacMW := 50 * fom(bits) / fom(8) // FoM-scaled dynamic power at 50 mW for 8 bits
		return componentModel("lightening", p, map[string]float64{
			"write_pj": 10, "write_ns": 100,
			"verify_pj": 1, "verify_ns": 10,
			"dac_pj": dacMW / fs, "dac_ns": 1 / fs, "dac_um2": 11000,
			"adc_pj": 2, "adc_ns": 1, "adc_um2": 3000,
			"read_pj": 1, "read_ns": 10,
			"cell_um2": 0.04,
			"par":      1,
		})
	})
	// ramwich: input converters from the RAMwich per-resolution DAC
	// config — 1-cycle (1 ns) latency, 3.50625 mW dynamic power (so
	// 3.50625 pJ per conversion) in 1.67e-7 mm² = 0.167 µm² — over the
	// same rram write path.
	models.MustRegister("ramwich", func(p *spec.Params) (Model, error) {
		return componentModel("ramwich", p, map[string]float64{
			"write_pj": 10, "write_ns": 100,
			"verify_pj": 1, "verify_ns": 10,
			"dac_pj": 3.50625, "dac_ns": 1, "dac_um2": 0.167,
			"adc_pj": 2, "adc_ns": 1, "adc_um2": 3000,
			"read_pj": 1, "read_ns": 10,
			"cell_um2": 0.04,
			"par":      1,
		})
	})
}
