package nonideal

import (
	"fmt"
	"strings"

	"swim/internal/spec"
)

// models is the nonideality registry (see package spec for the grammar).
var models = spec.New[Nonideality]("nonideal", "model")

// Register adds a model builder under name; registering a name twice is an
// error.
func Register(name string, b spec.Builder[Nonideality]) error { return models.Register(name, b) }

// Registered returns the registered model names, sorted.
func Registered() []string { return models.Names() }

// Parse builds one model from a spec string: a registered name optionally
// followed by colon-separated parameters, e.g. "drift" or
// "drift:nu=0.05,nustd=0.01". Every built-in's String() round-trips through
// Parse.
func Parse(s string) (Nonideality, error) { return models.Parse(s) }

// ParseStack parses a '+'-joined stack of model specs, applied in order at
// read time, e.g. "quantlevels+drift:nu=0.05+stuckat:p=0.001". The empty
// string and the literal "none" yield an empty stack (the ideal-device
// baseline), so scenario lists can include the control case.
func ParseStack(s string) ([]Nonideality, error) {
	if spec.None(s) {
		return nil, nil
	}
	var out []Nonideality
	for _, one := range strings.Split(strings.TrimSpace(s), "+") {
		n, err := Parse(one)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// FromFlag resolves the CLIs' shared -nonideal flag convention: the
// literal "list" requests the registered-model listing (returned in
// listing, with no models); anything else parses as a '+'-stacked
// scenario via ParseStack.
func FromFlag(s string) (stack []Nonideality, listing string, err error) {
	if listing, ok := models.Listing(s); ok {
		return nil, listing, nil
	}
	stack, err = ParseStack(s)
	return stack, "", err
}

// StackString renders a model stack back to its '+'-joined spec ("none" for
// an empty stack) — the inverse of ParseStack.
func StackString(stack []Nonideality) string {
	if len(stack) == 0 {
		return "none"
	}
	return strings.Join(Names(stack), "+")
}

func init() {
	models.MustRegister("drift", func(p *spec.Params) (Nonideality, error) {
		d := Drift{Nu: p.Get("nu", 0.02), NuStd: p.Get("nustd", 0.005), T0: p.Get("t0", 1)}
		if d.Nu < 0 || d.NuStd < 0 || d.T0 <= 0 {
			return nil, fmt.Errorf("drift needs nu >= 0, nustd >= 0, t0 > 0 (got nu=%g nustd=%g t0=%g)", d.Nu, d.NuStd, d.T0)
		}
		return d, nil
	})
	models.MustRegister("retention", func(p *spec.Params) (Nonideality, error) {
		d := Retention{Tau: p.Get("tau", 1e6), Spread: p.Get("spread", 0.5)}
		if d.Tau <= 0 || d.Spread < 0 {
			return nil, fmt.Errorf("retention needs tau > 0 and spread >= 0 (got tau=%g spread=%g)", d.Tau, d.Spread)
		}
		return d, nil
	})
	models.MustRegister("stuckat", func(p *spec.Params) (Nonideality, error) {
		d := StuckAt{P: p.Get("p", 1e-3), High: p.Get("high", 0.5)}
		if d.P < 0 || d.P > 1 || d.High < 0 || d.High > 1 {
			return nil, fmt.Errorf("stuckat needs p and high in [0, 1] (got p=%g high=%g)", d.P, d.High)
		}
		return d, nil
	})
	models.MustRegister("d2d", func(p *spec.Params) (Nonideality, error) {
		d := D2D{Spread: p.Get("spread", 0.3)}
		if d.Spread < 0 {
			return nil, fmt.Errorf("d2d needs spread >= 0 (got %g)", d.Spread)
		}
		return d, nil
	})
	models.MustRegister("quantlevels", func(p *spec.Params) (Nonideality, error) {
		bits := p.Get("bits", 4)
		if bits < 1 || bits != float64(int(bits)) || bits > 16 {
			return nil, fmt.Errorf("quantlevels needs integer bits in [1, 16] (got %g)", bits)
		}
		return QuantLevels{Bits: int(bits)}, nil
	})
}
