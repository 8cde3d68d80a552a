package spec

import (
	"errors"
	"strings"
	"testing"
)

// point is a test model with two parameters; its spec is the canonical form
// Params renders.
type point struct {
	a, b float64
	spec string
}

var errNegative = errors.New("point needs a >= 0")

func testRegistry(t *testing.T) *Registry[point] {
	t.Helper()
	r := New[point]("test", "model")
	r.MustRegister("pt", func(p *Params) (point, error) {
		pt := point{a: p.Get("a", 1), b: p.Get("b", 2), spec: p.Spec()}
		if pt.a < 0 {
			return point{}, errNegative
		}
		return pt, nil
	})
	r.MustRegister("bare", func(*Params) (point, error) { return point{spec: "bare"}, nil })
	return r
}

func TestRegister(t *testing.T) {
	r := testRegistry(t)
	build := func(*Params) (point, error) { return point{}, nil }
	for _, c := range []struct {
		name string
		b    Builder[point]
		want string
	}{
		{"x", nil, "test: register nil builder"},
		{"", build, "test: register model with empty name"},
		{"pt", build, `test: model "pt" already registered`},
	} {
		if err := r.Register(c.name, c.b); err == nil || err.Error() != c.want {
			t.Errorf("Register(%q) = %v, want %q", c.name, err, c.want)
		}
	}
	if err := r.Register("abc", build); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(r.Names(), ","); got != "abc,bare,pt" {
		t.Fatalf("Names() = %s, want sorted abc,bare,pt", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister of a duplicate did not panic")
		}
	}()
	r.MustRegister("abc", build)
}

func TestLookupUnknown(t *testing.T) {
	_, err := testRegistry(t).Lookup("nope")
	if want := `test: unknown model "nope" (registered: [bare pt])`; err == nil || err.Error() != want {
		t.Fatalf("Lookup(nope) = %v, want %q", err, want)
	}
}

func TestParse(t *testing.T) {
	r := testRegistry(t)
	for in, want := range map[string]string{
		"pt":                 "pt:a=1,b=2",
		"bare":               "bare",
		"pt:b=0.25":          "pt:a=1,b=0.25",
		"  pt:b = 3 , a= 4 ": "pt:a=4,b=3",
		"pt:a=1e6":           "pt:a=1e06,b=2",
		"pt:a=1e+06":         "pt:a=1e06,b=2",
		"pt:a=1e-07,a=5":     "pt:a=5,b=2", // the last of a repeated key wins
	} {
		got, err := r.Parse(in)
		if err != nil || got.spec != want {
			t.Errorf("Parse(%q) = (%q, %v), want %q", in, got.spec, err, want)
		}
	}
	for in, want := range map[string]string{
		"":              `test: unknown model ""`,
		"pt :a=1":       `test: unknown model "pt "`,
		"pt:a":          `test: bad parameter "a" in spec "pt:a" (want key=value)`,
		"pt:a=1,":       `test: bad parameter "" in spec "pt:a=1," (want key=value)`,
		"pt:a=x":        `test: bad value for "a" in spec "pt:a=x"`,
		"pt:z=1,c=1":    `test: spec "pt:z=1,c=1": unknown parameter "c" for model "pt"`,
		"bare:a=1":      `test: spec "bare:a=1": unknown parameter "a" for model "bare"`,
		"pt:a=-1,c=1":   `test: spec "pt:a=-1,c=1": point needs a >= 0`,
		"nope:a=1,b=2":  `test: unknown model "nope" (registered: [bare pt])`,
		"pt:a=1:b=2":    `test: bad value for "a" in spec "pt:a=1:b=2"`,
		"pt:a=1e+06+pt": `test: bad value for "a"`,
		"pt:a=NaN":      `test: bad value for "a" in spec "pt:a=NaN": NaN is not finite`,
		"pt:b=inf":      `test: bad value for "b" in spec "pt:b=inf": +Inf is not finite`,
		"pt:b=-Inf":     `test: bad value for "b" in spec "pt:b=-Inf": -Inf is not finite`,
		"pt:a=1e309":    `test: bad value for "a" in spec "pt:a=1e309": strconv.ParseFloat`,
	} {
		_, err := r.Parse(in)
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want prefix %q", in, err, want)
		}
	}
	if _, err := r.Parse("pt:a=-1"); !errors.Is(err, errNegative) {
		t.Errorf("builder error not wrapped: %v", err)
	}
}

func TestFlagConvention(t *testing.T) {
	r := testRegistry(t)
	for _, flag := range []string{"list", " list "} {
		if listing, ok := r.Listing(flag); !ok || listing != "bare\npt" {
			t.Errorf("Listing(%q) = (%q, %v)", flag, listing, ok)
		}
		if _, ok, listing, err := r.FromFlag(flag); ok || err != nil || listing != "bare\npt" {
			t.Errorf("FromFlag(%q) = ok %v listing %q err %v", flag, ok, listing, err)
		}
	}
	if _, ok := r.Listing("pt"); ok {
		t.Error(`Listing("pt") reported a listing`)
	}
	for _, flag := range []string{"", "none", "  none "} {
		if !None(flag) {
			t.Errorf("None(%q) = false", flag)
		}
		if _, ok, listing, err := r.FromFlag(flag); ok || err != nil || listing != "" {
			t.Errorf("FromFlag(%q) = ok %v listing %q err %v, want nothing selected", flag, ok, listing, err)
		}
	}
	if None("pt") || None("nonesuch") {
		t.Error("None accepted a spec")
	}
	if v, ok, _, err := r.FromFlag(" pt:a=3 "); !ok || err != nil || v.spec != "pt:a=3,b=2" {
		t.Errorf("FromFlag(spec) = (%q, %v, %v)", v.spec, ok, err)
	}
	if _, ok, _, err := r.FromFlag("nope"); ok || err == nil {
		t.Errorf("FromFlag(nope) = ok %v err %v, want error", ok, err)
	}
}

func TestFormatFloat(t *testing.T) {
	for v, want := range map[float64]string{
		0: "0", 0.5: "0.5", 3000: "3000", 1e6: "1e06", 1.5e21: "1.5e21",
		1e-7: "1e-07", -2.5e300: "-2.5e300", 1.0 / 3: "0.3333333333333333",
	} {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

// FuzzParse drives the grammar with arbitrary input: no input may panic,
// and every accepted spec must canonicalize to a spec with no "e+" that
// reparses to itself.
func FuzzParse(f *testing.F) {
	for _, s := range []string{"pt", "bare", " pt:a=1e6 , b=-0", "pt:a=1e+06", "pt:a=", "pt:=", ":", "pt:a=NaN", "pt:b=Inf", "pt:a=0x1p-2"} {
		f.Add(s)
	}
	r := New[point]("fuzz", "model")
	r.MustRegister("pt", func(p *Params) (point, error) {
		return point{a: p.Get("a", 1), b: p.Get("b", 2), spec: p.Spec()}, nil
	})
	r.MustRegister("bare", func(*Params) (point, error) { return point{spec: "bare"}, nil })
	f.Fuzz(func(t *testing.T, s string) {
		v, err := r.Parse(s)
		if err != nil {
			return
		}
		if strings.Contains(v.spec, "e+") {
			t.Fatalf("canonical spec %q (of %q) contains e+", v.spec, s)
		}
		again, err := r.Parse(v.spec)
		if err != nil {
			t.Fatalf("canonical spec %q (of %q) rejected: %v", v.spec, s, err)
		}
		if again.spec != v.spec {
			t.Fatalf("canonical spec not a fixed point: %q -> %q", v.spec, again.spec)
		}
	})
}
