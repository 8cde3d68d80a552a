package nonideal

import "testing"

// FuzzParseStack drives the '+'-stacked spec grammar with arbitrary input.
// Two properties must hold: no input panics the parser, and any accepted
// input reaches a canonical form — StackString of the parsed stack reparses
// to byte-identical StackString (the fixed point every CLI flag and cache
// key relies on).
func FuzzParseStack(f *testing.F) {
	f.Add("")
	f.Add("none")
	f.Add("drift")
	f.Add("drift:nu=0.05,nustd=0.005,t0=1")
	f.Add("quantlevels+drift:nu=0.05+stuckat:p=0.001")
	f.Add("d2d:spread=0.1+retention")
	f.Add("drift:nu=")
	f.Add("+")
	f.Add("drift:nu=0.05;stuckat")
	f.Add("stuckat:p=1e309")
	f.Add("drift:t0=inf") // would canonicalize to "t0=+Inf", split by the stack's '+'
	f.Fuzz(func(t *testing.T, spec string) {
		models, err := ParseStack(spec)
		if err != nil {
			return
		}
		canon := StackString(models)
		again, err := ParseStack(canon)
		if err != nil {
			t.Fatalf("canonical form %q (of %q) rejected: %v", canon, spec, err)
		}
		if got := StackString(again); got != canon {
			t.Fatalf("canonical form not a fixed point: %q reparsed to %q", canon, got)
		}
	})
}
