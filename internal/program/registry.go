package program

import (
	"errors"
	"strings"

	"swim/internal/spec"
)

// policies is the policy registry (see package spec). A policy takes no
// parameters, so each entry's builder returns the registered value.
var policies = spec.New[Policy]("program", "policy")

// Register adds a policy to the registry under its Name. Registering a name
// twice is an error.
func Register(p Policy) error {
	if p == nil {
		return errors.New("program: register nil policy")
	}
	return policies.Register(p.Name(), func(*spec.Params) (Policy, error) { return p, nil })
}

// MustRegister is Register for package-init use; it panics on error.
func MustRegister(p Policy) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

// Lookup resolves a policy by name. Unknown names return an error listing
// what is registered, so a mistyped -policy flag reads as a usage hint.
func Lookup(name string) (Policy, error) {
	b, err := policies.Lookup(name)
	if err != nil {
		return nil, err
	}
	return b(nil)
}

// ResolveNames parses a comma-separated policy list (the CLIs' -policies
// flag), validating every trimmed name through the registry. It returns the
// cleaned names in input order; an empty input yields nil.
func ResolveNames(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var out []string
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if _, err := Lookup(name); err != nil {
			return nil, err
		}
		out = append(out, name)
	}
	return out, nil
}

// Names returns the registered policy names, sorted.
func Names() []string { return policies.Names() }
