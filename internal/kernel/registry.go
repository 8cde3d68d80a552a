package kernel

import (
	"fmt"

	"swim/internal/spec"
)

// backends is the backend registry (see package spec for the grammar).
var backends = spec.New[Backend]("kernel", "backend")

// Register adds a backend builder under name; registering a name twice is an
// error.
func Register(name string, b spec.Builder[Backend]) error { return backends.Register(name, b) }

// Registered returns the registered backend names, sorted.
func Registered() []string { return backends.Names() }

// Parse builds one backend from a spec string: a registered name optionally
// followed by colon-separated parameters, e.g. "blocked" or
// "parallel:workers=4". Every built-in's Spec() round-trips through Parse.
func Parse(s string) (Backend, error) { return backends.Parse(s) }

func init() {
	backends.MustRegister("scalar", func(*spec.Params) (Backend, error) { return scalar{}, nil })
	backends.MustRegister("blocked", func(*spec.Params) (Backend, error) { return blocked{}, nil })
	backends.MustRegister("parallel", func(p *spec.Params) (Backend, error) {
		w := p.Get("workers", 0)
		if w < 0 || w != float64(int(w)) || w > 1<<16 {
			return nil, fmt.Errorf("parallel needs integer workers in [0, 65536], 0 = all CPUs (got %g)", w)
		}
		return &parallel{workers: int(w)}, nil
	})
}
