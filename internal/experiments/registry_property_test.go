package experiments

// Cross-registry property test. The nonideality, cost, kernel, calibration
// and policy registries are all instances of spec.Registry — spec strings
// canonicalize through Parse, unknown names fail with a usage hint listing
// what IS registered — but each package only tests its own builders. This
// file pins the shared contract through every package's public entry
// points, so a registry that drifts from the conventions fails loudly.

import (
	"strings"
	"testing"

	"swim/internal/calib"
	"swim/internal/cost"
	"swim/internal/kernel"
	"swim/internal/nonideal"
	"swim/internal/program"
)

// registryContract adapts one registry to the shared shape: its registered
// names, a parse returning the canonical spec, and a valid spec with an
// exponent-valued parameter ("" for a registry without parameters).
type registryContract struct {
	pkg        string
	registered []string
	canonical  func(spec string) (string, error)
	exponent   string
}

func contracts() []registryContract {
	return []registryContract{
		{
			pkg:        "nonideal",
			registered: nonideal.Registered(),
			canonical: func(spec string) (string, error) {
				n, err := nonideal.Parse(spec)
				if err != nil {
					return "", err
				}
				return n.String(), nil
			},
			exponent: "retention:tau=1e+07",
		},
		{
			pkg:        "cost",
			registered: cost.Registered(),
			canonical: func(spec string) (string, error) {
				m, err := cost.Parse(spec)
				if err != nil {
					return "", err
				}
				return m.Spec(), nil
			},
			exponent: "rram:write_ns=1e6",
		},
		{
			pkg:        "kernel",
			registered: kernel.Registered(),
			canonical: func(spec string) (string, error) {
				k, err := kernel.Parse(spec)
				if err != nil {
					return "", err
				}
				return k.Spec(), nil
			},
			exponent: "parallel:workers=1e+03",
		},
		{
			pkg:        "calib",
			registered: calib.Registered(),
			canonical: func(spec string) (string, error) {
				m, err := calib.Parse(spec)
				if err != nil {
					return "", err
				}
				return m.Spec(), nil
			},
			exponent: "gainoffset:probes=1e6",
		},
		{
			pkg:        "program",
			registered: program.Names(),
			// Policies take no parameters; ResolveNames is the CLIs' entry
			// point and trims each name before its Lookup.
			canonical: func(spec string) (string, error) {
				names, err := program.ResolveNames(spec)
				if err != nil {
					return "", err
				}
				return strings.Join(names, ","), nil
			},
		},
	}
}

// Every registry has at least one built-in, and every built-in's bare name
// parses with defaults to a canonical spec that is a Parse fixed point:
// Parse(Parse(name).Spec()).Spec() == Parse(name).Spec(). Cache keys,
// shard-merge agreement checks and journal resume all compare these
// strings byte for byte, so "canonical" has to mean exactly one spelling.
func TestRegistriesCanonicalizeBuiltins(t *testing.T) {
	for _, c := range contracts() {
		if len(c.registered) == 0 {
			t.Errorf("%s: no built-ins registered", c.pkg)
			continue
		}
		for _, name := range c.registered {
			canon, err := c.canonical(name)
			if err != nil {
				t.Errorf("%s: built-in %q does not parse bare: %v", c.pkg, name, err)
				continue
			}
			if !strings.HasPrefix(canon, name) {
				t.Errorf("%s: canonical spec %q does not lead with the name %q", c.pkg, canon, name)
			}
			again, err := c.canonical(canon)
			if err != nil {
				t.Errorf("%s: canonical spec %q rejected on reparse: %v", c.pkg, canon, err)
				continue
			}
			if again != canon {
				t.Errorf("%s: canonical spec not a fixed point: %q -> %q", c.pkg, canon, again)
			}
			// Whitespace around the spec must not change the parse.
			padded, err := c.canonical("  " + canon + " ")
			if err != nil || padded != canon {
				t.Errorf("%s: padded spec %q -> (%q, %v), want %q", c.pkg, "  "+canon+" ", padded, err, canon)
			}
		}
	}
}

// A parameter written with an exponent canonicalizes to a fixed point with
// no '+' in it: every registry renders floats through spec.FormatFloat
// ("1e06", never "1e+06"), so a canonical spec can sit in a '+'-joined
// nonideality stack and every cache key has one spelling.
func TestRegistriesCanonicalizeExponents(t *testing.T) {
	for _, c := range contracts() {
		if c.exponent == "" {
			continue
		}
		canon, err := c.canonical(c.exponent)
		if err != nil {
			t.Errorf("%s: %q rejected: %v", c.pkg, c.exponent, err)
			continue
		}
		if strings.Contains(canon, "e+") {
			t.Errorf("%s: canonical spec %q of %q contains \"e+\"", c.pkg, canon, c.exponent)
		}
		if again, err := c.canonical(canon); err != nil || again != canon {
			t.Errorf("%s: canonical spec not a fixed point: %q -> (%q, %v)", c.pkg, canon, again, err)
		}
	}
}

// Unknown names fail the same way everywhere: a non-nil error that names
// the package, echoes the offending name, and lists every registered
// built-in as a usage hint. CLIs print these errors verbatim.
func TestRegistriesRejectUnknownNames(t *testing.T) {
	const bogus = "no-such-model-xyz"
	for _, c := range contracts() {
		_, err := c.canonical(bogus)
		if err == nil {
			t.Errorf("%s: unknown name %q looked up", c.pkg, bogus)
			continue
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, c.pkg+":") {
			t.Errorf("%s: error not package-prefixed: %q", c.pkg, msg)
		}
		if !strings.Contains(msg, bogus) {
			t.Errorf("%s: error does not echo the unknown name: %q", c.pkg, msg)
		}
		for _, name := range c.registered {
			if !strings.Contains(msg, name) {
				t.Errorf("%s: usage hint omits built-in %q: %q", c.pkg, name, msg)
			}
		}
		// A bogus name with parameters fails too.
		if _, err := c.canonical(bogus + ":x=1"); err == nil {
			t.Errorf("%s: spec with unknown name parsed", c.pkg)
		}
	}
}
