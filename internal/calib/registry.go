package calib

import (
	"fmt"
	"math"

	"swim/internal/spec"
)

// models is the calibration-model registry (see package spec for the
// grammar).
var models = spec.New[Model]("calib", "model")

// Register adds a model builder under name; registering a name twice is an
// error.
func Register(name string, b spec.Builder[Model]) error { return models.Register(name, b) }

// Registered returns the registered model names, sorted.
func Registered() []string { return models.Names() }

// Parse builds one model from a spec string: a registered name optionally
// followed by colon-separated parameters, e.g. "gainoffset" or
// "pertile:probes=16,tilerows=64". Every model's Spec() round-trips through
// Parse to an identical model — the canonical spec spells out every resolved
// parameter, so two daemons that parse the same spec agree bit-for-bit.
func Parse(s string) (Model, error) { return models.Parse(s) }

// FromFlag resolves the CLIs' shared -calib flag convention: the literal
// "list" requests the registered-model listing (returned in listing, with no
// model); the empty string and the literal "none" disable calibration (ok
// reports false); anything else parses as a model spec.
func FromFlag(s string) (m Model, ok bool, listing string, err error) { return models.FromFlag(s) }

// probeBudget validates the shared probes parameter.
func probeBudget(name string, p *spec.Params) (int, error) {
	probes := p.Get("probes", 8)
	if probes < 2 || probes != math.Trunc(probes) || probes > 1<<20 {
		return 0, fmt.Errorf("model %q needs integer probes >= 2 (got %g)", name, probes)
	}
	return int(probes), nil
}

func init() {
	// gainoffset: one least-squares gain+offset per bit-line column (output
	// row of the mapped matrix), fitted from `probes` one-hot probe reads
	// per matrix. The default budget of 8 probes matches a sub-percent
	// read overhead on every built-in workload.
	models.MustRegister("gainoffset", func(p *spec.Params) (Model, error) {
		probes, err := probeBudget("gainoffset", p)
		if err != nil {
			return Model{}, err
		}
		m := Model{name: "gainoffset", probes: probes, spec: p.Spec()}
		return m, m.Validate()
	})
	// pertile: the same affine fit at crossbar-tile granularity — one
	// (gain, offset) per tilerows×tilecols tile of the mapped matrix
	// (word lines × bit lines, defaulting to the 128×128 fabric of
	// crossbar.DefaultConfig). Coarser groups pool more probe samples per
	// fit, trading spatial resolution for estimator variance.
	models.MustRegister("pertile", func(p *spec.Params) (Model, error) {
		probes, err := probeBudget("pertile", p)
		if err != nil {
			return Model{}, err
		}
		tr := p.Get("tilerows", 128)
		tc := p.Get("tilecols", 128)
		if tr < 1 || tr != math.Trunc(tr) || tc < 1 || tc != math.Trunc(tc) {
			return Model{}, fmt.Errorf("model %q needs integer tilerows/tilecols >= 1 (got %gx%g)", "pertile", tr, tc)
		}
		m := Model{name: "pertile", probes: probes, tileRows: int(tr), tileCols: int(tc), spec: p.Spec()}
		return m, m.Validate()
	})
}
