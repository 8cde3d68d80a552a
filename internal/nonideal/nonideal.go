// Package nonideal models post-programming device nonidealities — the
// effects the SWIM paper's Gaussian programming-noise model (Eq. 15–16)
// deliberately leaves out but real nvCiM deployments face: conductance
// drift, retention loss, stuck-at faults, device-to-device variation and
// conductance-level quantization.
//
// The package mirrors the program.Policy pattern: a Nonideality is a named,
// configured model resolved through a spec registry (Register / Parse, see
// package spec), and every Monte-Carlo trial mints its own Instance from the
// trial's pre-split RNG stream. Instances are applied at READ time: the
// mapping and crossbar layers keep the programmed (time-0) conductance of
// every bit-slice device and pass it through Instance.Apply whenever the
// network is evaluated, so write-verify interacts correctly with
// post-programming degradation: programming (the whole pass, verification
// included) happens at t = 0 and every device then degrades for the full
// read time, verified or not — write-verify helps because the conductance
// that subsequently degrades carries a far smaller programming error, not
// because verification restarts any clock.
//
// # Determinism
//
// Per-device randomness (a stuck fault, a device's drift coefficient) must
// not depend on the order devices are read in, or results would vary with
// evaluation order and worker scheduling. Every Instance therefore draws a
// single 64-bit trial key from the stream it is minted from and derives each
// device's randomness by mixing the key with the device index
// (splitmix-style), never by consuming a shared stream at read time. Reads
// are pure: Apply(dev, g, t) is a function of (trial key, dev, g, t).
//
// # Read time
//
// A trial reads every device at one fixed time. At binds that time into a
// copy of an instance (a Stack's members included), so work that depends on
// the time alone is done once per trial instead of once per device: drift
// takes log(t/t0) there and then costs one Exp per device, returning
// exactly what math.Pow would. A bound instance still answers any other t,
// bit for bit, by doing that work itself.
package nonideal

import (
	"swim/internal/device"
	"swim/internal/rng"
)

// Nonideality is a named, configured device-nonideality model. Values are
// immutable and safe for concurrent use; all per-trial randomness lives in
// the Instance minted by NewTrial.
type Nonideality interface {
	// Name returns the registry name the model was built from (e.g.
	// "drift") — the key Lookup resolves.
	Name() string
	// String returns the full spec, parameters included (e.g.
	// "drift:nu=0.02,nustd=0.005"), suitable for Parse round-tripping and
	// for recording in a program.Result.
	String() string
	// NewTrial samples the per-trial state for one Monte-Carlo trial on
	// devices of model m. It must consume a fixed amount of randomness from
	// r (the built-ins draw exactly one Uint64 key), so that stacking
	// models keeps every stream assignment deterministic.
	NewTrial(m device.Model, r *rng.Source) Instance
}

// Instance is one trial's sampled nonideality state. Apply must be pure and
// read-order invariant: the same (dev, g, t) always yields the same value
// within a trial, regardless of how many devices were read before it.
type Instance interface {
	// Apply returns the conductance observed when reading device dev at t
	// seconds after programming, given its programmed conductance g.
	// Both g and the result are magnitudes in device-level units; the
	// caller owns the differential-pair sign. dev is the global flat
	// device index (weight index × devices-per-weight + slice).
	Apply(dev int, g float64, t float64) float64
}

// Stack composes instances applied in order: the output conductance of one
// model is the input of the next, so e.g. quantized levels can then drift.
type Stack []Instance

// Apply runs the stacked instances in order.
func (s Stack) Apply(dev int, g float64, t float64) float64 {
	for _, inst := range s {
		g = inst.Apply(dev, g, t)
	}
	return g
}

// At returns inst prepared for reads at t seconds: an Instance whose Apply
// returns the same bits as inst's for every (dev, g, t'), and does less
// work when t' == t, because work that depends only on the read time —
// drift's log(t/t0) — is done here once instead of once per device. A
// Stack comes back as a copy whose members are prepared; inst itself is
// not modified, so both stay pure and safe to share. Instances with no
// per-read-time work, and nil, come back as they are. Callers that fix the
// read time (mapping.SetNonideal, crossbar.Array.SetNonideal) bind it here.
func At(inst Instance, t float64) Instance {
	switch in := inst.(type) {
	case Stack:
		out := make(Stack, len(in))
		for i, m := range in {
			out[i] = At(m, t)
		}
		return out
	case driftInstance:
		return in.bindAt(t)
	}
	return inst
}

// NewTrials mints one Instance per model, each from its own child stream
// split off r, and returns them as a Stack. Splitting per model keeps the
// parent stream's consumption fixed (len(models) splits) no matter how much
// randomness each model draws.
func NewTrials(models []Nonideality, m device.Model, r *rng.Source) Stack {
	out := make(Stack, len(models))
	for i, n := range models {
		out[i] = n.NewTrial(m, r.Split())
	}
	return out
}

// Names returns the configured models' full specs (String), in order — the
// form program.Result records.
func Names(models []Nonideality) []string {
	out := make([]string, len(models))
	for i, n := range models {
		out[i] = n.String()
	}
	return out
}

// devKey derives the deterministic per-device seed from a trial key: one
// extra splitmix mixing step over key+dev so adjacent device indices
// decorrelate. The per-device stream is rng.NewLocal(devKey(key, dev)).
func devKey(key uint64, dev int) uint64 {
	z := key + 0x9e3779b97f4a7c15*uint64(dev+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sliceOf maps a global flat device index to its bit-slice position within
// the weight, matching the mapping/crossbar layout (dev = weight*nd +
// slice).
func sliceOf(m device.Model, dev int) int {
	nd := m.NumDevices()
	if nd < 1 {
		return 0
	}
	return dev % nd
}
