// Package spec is the one implementation of the spec-registry idiom every
// pluggable tier shares: nonideal's read-time models, cost's presets,
// calib's calibration models, kernel's backends and program's policies are
// each a Registry of named builders.
//
// # Grammar
//
// A spec is a registered name, optionally followed by ':' and a
// comma-separated list of key=value parameters whose values are finite
// float64 in strconv.ParseFloat syntax ("drift", "rram:write_pj=12,par=64").
// Whitespace around the whole spec, around keys and around values is
// ignored. A builder reads the parameters it knows through Params.Get with
// its defaults; Parse rejects any parameter the builder did not read.
//
// # Canonical floats
//
// FormatFloat renders a parameter value as the shortest 'g' string that
// round-trips exactly, with "e+" shortened to "e" (1e6 renders "1e06"), so
// an exponent never writes '+', the separator of nonideal's model stacks.
// Parse accepts both spellings, so specs written with "e+" still parse.
//
// # Flags
//
// The CLIs share one flag convention: the literal "list" asks for the
// registered names (Listing), the empty string and the literal "none" select
// nothing (None), anything else is a spec (FromFlag combines the three).
package spec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Builder constructs a configured T from a spec's parameters.
type Builder[T any] func(p *Params) (T, error)

// Registry maps names to builders of T. The zero value is not usable; call
// New. A Registry is safe for concurrent use.
type Registry[T any] struct {
	pkg, noun string
	mu        sync.RWMutex
	builders  map[string]Builder[T]
}

// New returns an empty registry whose errors are prefixed with pkg and call
// each entry a noun ("nonideal", "model" → `nonideal: unknown model "x"`).
func New[T any](pkg, noun string) *Registry[T] {
	return &Registry[T]{pkg: pkg, noun: noun, builders: map[string]Builder[T]{}}
}

// Register adds a builder under name. Registering a name twice is an error:
// silently replacing an entry would make specs depend on package
// initialization order.
func (r *Registry[T]) Register(name string, b Builder[T]) error {
	if b == nil {
		return fmt.Errorf("%s: register nil builder", r.pkg)
	}
	if name == "" {
		return fmt.Errorf("%s: register %s with empty name", r.pkg, r.noun)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.builders[name]; dup {
		return fmt.Errorf("%s: %s %q already registered", r.pkg, r.noun, name)
	}
	r.builders[name] = b
	return nil
}

// MustRegister is Register for package-init use; it panics on error.
func (r *Registry[T]) MustRegister(name string, b Builder[T]) {
	if err := r.Register(name, b); err != nil {
		panic(err)
	}
}

// Lookup resolves a builder by exact name. Unknown names return an error
// listing what is registered, so a mistyped flag reads as a usage hint.
func (r *Registry[T]) Lookup(name string) (Builder[T], error) {
	r.mu.RLock()
	b, ok := r.builders[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%s: unknown %s %q (registered: %v)", r.pkg, r.noun, name, r.Names())
	}
	return b, nil
}

// Names returns the registered names, sorted.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.builders))
	for name := range r.builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Parse builds one entry from a spec string (see the package comment for
// the grammar).
func (r *Registry[T]) Parse(spec string) (T, error) {
	var zero T
	name, rest, _ := strings.Cut(strings.TrimSpace(spec), ":")
	b, err := r.Lookup(name)
	if err != nil {
		return zero, err
	}
	p := &Params{name: name, noun: r.noun, vals: map[string]float64{}, resolved: map[string]float64{}}
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return zero, fmt.Errorf("%s: bad parameter %q in spec %q (want key=value)", r.pkg, kv, spec)
			}
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
				// No model takes one, and "+Inf" would split a stack.
				err = fmt.Errorf("%v is not finite", f)
			}
			if err != nil {
				return zero, fmt.Errorf("%s: bad value for %q in spec %q: %v", r.pkg, k, spec, err)
			}
			p.vals[strings.TrimSpace(k)] = f
		}
	}
	v, err := b(p)
	if err == nil {
		err = p.leftover()
	}
	if err != nil {
		return zero, fmt.Errorf("%s: spec %q: %w", r.pkg, spec, err)
	}
	return v, nil
}

// Listing reports whether flag is the literal "list" and, if so, returns
// the registered names one per line.
func (r *Registry[T]) Listing(flag string) (string, bool) {
	if strings.TrimSpace(flag) != "list" {
		return "", false
	}
	return strings.Join(r.Names(), "\n"), true
}

// None reports whether flag selects nothing: the empty string or the
// literal "none".
func None(flag string) bool {
	flag = strings.TrimSpace(flag)
	return flag == "" || flag == "none"
}

// FromFlag resolves the whole flag convention: "list" returns the listing,
// "" and "none" return ok false, anything else parses as a spec (ok true on
// success).
func (r *Registry[T]) FromFlag(flag string) (v T, ok bool, listing string, err error) {
	if listing, isList := r.Listing(flag); isList {
		return v, false, listing, nil
	}
	if None(flag) {
		return v, false, "", nil
	}
	v, err = r.Parse(strings.TrimSpace(flag))
	return v, err == nil, "", err
}

// Params is the parameter set of one spec as its builder consumes it.
type Params struct {
	name, noun string
	vals       map[string]float64 // as written in the spec
	resolved   map[string]float64 // every key the builder read, with its value
}

// Get returns the value of key, or def when the spec does not set it, and
// records the key as read.
func (p *Params) Get(key string, def float64) float64 {
	v, ok := p.vals[key]
	if !ok {
		v = def
	}
	p.resolved[key] = v
	return v
}

// Spec renders the canonical spec: the name, then every parameter the
// builder read in sorted key order, each value through FormatFloat.
// Parsing it rebuilds bit-identical values.
func (p *Params) Spec() string {
	keys := make([]string, 0, len(p.resolved))
	for k := range p.resolved {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(p.name)
	for i, k := range keys {
		if i == 0 {
			sb.WriteByte(':')
		} else {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(FormatFloat(p.resolved[k]))
	}
	return sb.String()
}

// leftover returns an error naming the first (in sorted order) parameter
// the builder did not read.
func (p *Params) leftover() error {
	var unread []string
	for k := range p.vals {
		if _, ok := p.resolved[k]; !ok {
			unread = append(unread, k)
		}
	}
	if len(unread) == 0 {
		return nil
	}
	sort.Strings(unread)
	return fmt.Errorf("unknown parameter %q for %s %q", unread[0], p.noun, p.name)
}

// FormatFloat renders a spec parameter value: strconv's shortest 'g' form,
// which round-trips exactly, with "e+" shortened to "e".
func FormatFloat(v float64) string {
	return strings.Replace(strconv.FormatFloat(v, 'g', -1, 64), "e+", "e", 1)
}
