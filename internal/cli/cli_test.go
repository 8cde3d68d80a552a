package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"swim/internal/calib"
	"swim/internal/cost"
	"swim/internal/experiments"
	"swim/internal/kernel"
	"swim/internal/nonideal"
	"swim/internal/program"
	"swim/internal/serialize"
)

// exited is what the test exit hook panics with: the exit code.
type exited int

// newTest returns a Command over its own flag set with the shared flags
// in flags (the policies bit registers -policies with an empty default),
// its output captured and its exit hook panicking with exited.
func newTest(flags Flag, args ...string) (c *Command, stdout, stderr *bytes.Buffer) {
	fs := flag.NewFlagSet("swim-test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c = newCommand("swim-test", flags&^policies, fs, args)
	if flags&policies != 0 {
		c.Policies("")
	}
	stdout, stderr = new(bytes.Buffer), new(bytes.Buffer)
	c.stdout, c.stderr = stdout, stderr
	c.exit = func(code int) { panic(exited(code)) }
	return c, stdout, stderr
}

// exitCode runs f and returns the code it exited with, or -1 when it
// returned.
func exitCode(f func()) (code int) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(exited)
			if !ok {
				panic(r)
			}
			code = int(e)
		}
	}()
	f()
	return -1
}

func TestListPrintsRegistryNames(t *testing.T) {
	for _, tc := range []struct {
		flags Flag
		args  []string
		names []string
	}{
		{Nonideal, []string{"-nonideal", "list"}, nonideal.Registered()},
		{Nonideal, []string{"-nonideal", " list "}, nonideal.Registered()},
		{Scenarios, []string{"-nonideal", "list"}, nonideal.Registered()},
		{Kernel, []string{"-kernel", "list"}, kernel.Registered()},
		{Calib, []string{"-calib", "list"}, calib.Registered()},
		{Cost, []string{"-cost", "list"}, cost.Registered()},
		{policies, []string{"-policies", "list"}, program.Names()},
		{ListPolicies, []string{"-list-policies"}, program.Names()},
	} {
		c, stdout, stderr := newTest(tc.flags, tc.args...)
		if code := exitCode(c.Parse); code != 0 {
			t.Errorf("%v: exit %d, want 0", tc.args, code)
		}
		if want := strings.Join(tc.names, "\n") + "\n"; stdout.String() != want || stderr.Len() != 0 {
			t.Errorf("%v: stdout %q stderr %q, want stdout %q", tc.args, stdout, stderr, want)
		}
	}
}

func TestEmptyAndNoneSelectDefaultOrNothing(t *testing.T) {
	parse := func(flags Flag, args ...string) *Command {
		t.Helper()
		c, _, stderr := newTest(flags, args...)
		if code := exitCode(c.Parse); code != -1 {
			t.Fatalf("%v: exit %d (%s)", args, code, stderr)
		}
		return c
	}
	for _, v := range []string{"", "none", " none "} {
		if c := parse(Nonideal, "-nonideal", v); c.Nonideal != nil {
			t.Errorf("-nonideal %q = %v, want no models", v, c.Nonideal)
		}
		if c := parse(Calib, "-calib", v); c.Sweep().Calib != "" || c.ScenarioConfig().Calib != "" {
			t.Errorf("-calib %q selected a model", v)
		}
	}
	if c := parse(Scenarios, "-nonideal", ""); c.Scenarios != nil {
		t.Errorf("-nonideal \"\" = %v, want no scenarios", c.Scenarios)
	}
	if c := parse(Scenarios); len(c.Scenarios) != 2 || len(c.Scenarios[0].Models) != 0 {
		t.Errorf("default -nonideal = %+v, want none;drift", c.Scenarios)
	}
	c := parse(Kernel, "-kernel", "")
	if c.Kernel != "" || c.ReadScenario().Kernel != nil || c.Sweep().Kernel != "" {
		t.Errorf("-kernel \"\" = %q, want the default backend", c.Kernel)
	}
	c = parse(policies, "-policies", "")
	if c.Sweep().Policies != nil {
		t.Errorf("-policies \"\" gave a sweep %v, want the default set", c.Sweep().Policies)
	}
	if got, want := c.ScenarioConfig().Policies, experiments.DefaultScenarioConfig().Policies; !reflect.DeepEqual(got, want) {
		t.Errorf("-policies \"\" gave a scenario sweep %v, want %v", got, want)
	}
	rram, _ := cost.Parse("rram")
	if got := parse(Cost).ScenarioConfig().Cost; got != rram.Spec() {
		t.Errorf("default -cost = %q, want %q", got, rram.Spec())
	}
	// swim-pareto prices every cell, so the cost flag allows no "none".
	for _, v := range []string{"", "none"} {
		c, stdout, stderr := newTest(Cost, "-cost", v)
		want := `swim-test: a cost model is required (-cost "` + v + `" disables cost accounting; try -cost rram)` + "\n"
		if code := exitCode(c.Parse); code != 2 || stderr.String() != want || stdout.Len() != 0 {
			t.Errorf("-cost %q: exit %d stderr %q, want 2 and %q", v, code, stderr, want)
		}
	}
}

func TestMalformedSpecExits2(t *testing.T) {
	errOf := func(_ any, err error) error { return err }
	for _, tc := range []struct {
		flags Flag
		args  []string
		err   error // the registry's own error for the value
	}{
		{Nonideal, []string{"-nonideal", "drift:nu=x"}, errOf(nonideal.ParseStack("drift:nu=x"))},
		{Nonideal, []string{"-nonideal", "nosuch"}, errOf(nonideal.ParseStack("nosuch"))},
		{Scenarios, []string{"-nonideal", "none;drift:bogus=1"}, errOf(experiments.ParseScenarios("none;drift:bogus=1"))},
		{Kernel, []string{"-kernel", "nope"}, errOf(kernel.Parse("nope"))},
		{Kernel, []string{"-kernel", "parallel:workers=-1"}, errOf(kernel.Parse("parallel:workers=-1"))},
		{Calib, []string{"-calib", "gainoffset:probes=1"}, errOf(calib.Parse("gainoffset:probes=1"))},
		{Cost, []string{"-cost", "rram:par=0"}, errOf(cost.Parse("rram:par=0"))},
		{policies, []string{"-policies", "swim,nope"}, errOf(program.ResolveNames("swim,nope"))},
	} {
		if tc.err == nil {
			t.Fatalf("%v: the registry accepts the value", tc.args)
		}
		c, stdout, stderr := newTest(tc.flags, tc.args...)
		code := exitCode(c.Parse)
		if want := "swim-test: " + tc.err.Error() + "\n"; code != 2 || stderr.String() != want || stdout.Len() != 0 {
			t.Errorf("%v: exit %d stderr %q, want 2 and %q", tc.args, code, stderr, want)
		}
	}
}

func TestFlagsReachConfigs(t *testing.T) {
	c, _, stderr := newTest(Trials|Nonideal|ReadTime|Kernel|Calib|policies,
		"-trials", "5", "-nonideal", "drift", "-readtime", "60", "-kernel", "scalar",
		"-calib", "gainoffset", "-policies", "swim, random")
	if code := exitCode(c.Parse); code != -1 {
		t.Fatalf("exit %d (%s)", code, stderr)
	}
	gain, _ := calib.Parse("gainoffset")
	sw := c.Sweep()
	if sw.Trials != 5 || sw.Kernel != "scalar" || sw.Calib != gain.Spec() ||
		!reflect.DeepEqual(sw.Policies, []string{"swim", "random"}) ||
		nonideal.StackString(sw.Scenario.Models) != nonideal.StackString(c.Nonideal) || sw.Scenario.ReadTime != 60 {
		t.Errorf("Sweep() = %+v", sw)
	}
	sc := c.ScenarioConfig()
	if sc.Trials != 5 || sc.Kernel != "scalar" || sc.Calib != gain.Spec() || !reflect.DeepEqual(sc.Policies, sw.Policies) {
		t.Errorf("ScenarioConfig() = %+v", sc)
	}
	if rs := c.ReadScenario(); rs.Kernel == nil || rs.Kernel.Name() != "scalar" || rs.ReadTime != 60 || len(rs.Models) != 1 {
		t.Errorf("ReadScenario() = %+v", rs)
	}
}

func TestUnknownWorkloadExits2(t *testing.T) {
	c, stdout, stderr := newTest(0)
	code := exitCode(func() { c.Workload("nope", stdout) })
	want := `swim-test: unknown workload "nope" (want lenet, convnet, resnet or tiny)` + "\n"
	if code != 2 || stderr.String() != want || stdout.Len() != 0 {
		t.Errorf("exit %d stdout %q stderr %q, want 2 and %q", code, stdout, stderr, want)
	}
}

func TestFloats(t *testing.T) {
	c, _, stderr := newTest(0)
	for csv, want := range map[string][]float64{"": nil, "  ": nil, " 0, 1.5 ,3600": {0, 1.5, 3600}} {
		var got []float64
		if code := exitCode(func() { got = c.Floats("number", csv) }); code != -1 || !reflect.DeepEqual(got, want) {
			t.Errorf("Floats(%q) = %v (exit %d), want %v", csv, got, code, want)
		}
	}
	for _, csv := range []string{"0,x", "0,,1"} {
		stderr.Reset()
		if code := exitCode(func() { c.Floats("nwc", csv) }); code != 2 || !strings.HasPrefix(stderr.String(), "swim-test: bad nwc ") {
			t.Errorf("Floats(%q): exit %d stderr %q, want 2 and a bad nwc line", csv, code, stderr)
		}
	}
}

func TestList(t *testing.T) {
	if got := List(""); got != nil {
		t.Errorf("List(\"\") = %q, want nil", got)
	}
	if got, want := List(" http://a, ,http://b ,"), []string{"http://a", "http://b"}; !reflect.DeepEqual(got, want) {
		t.Errorf("List = %q, want %q", got, want)
	}
}

func TestCheckExits1(t *testing.T) {
	c, _, stderr := newTest(0)
	if code := exitCode(func() { c.Check(nil) }); code != -1 {
		t.Errorf("Check(nil) exited %d", code)
	}
	if code := exitCode(func() { c.Check(errors.New("boom")) }); code != 1 || stderr.String() != "swim-test: boom\n" {
		t.Errorf("Check(boom): exit %d stderr %q", code, stderr)
	}
}

func TestWriteEnvelope(t *testing.T) {
	env := &serialize.ResultEnvelope{Cells: []serialize.CellRecord{}}
	var want bytes.Buffer
	if err := serialize.EncodeEnvelope(&want, env); err != nil {
		t.Fatal(err)
	}
	c, stdout, _ := newTest(0)
	if c.Human("-") != c.stderr || c.Human("out.json") != c.stdout {
		t.Error("Human does not give stdout to a -json - envelope")
	}
	c.WriteEnvelope("-", env)
	path := filepath.Join(t.TempDir(), "out.json")
	c.WriteEnvelope(path, env)
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) || !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Errorf("file %q (%v), stdout %q, want %q", got, err, stdout, want.Bytes())
	}
	if code := exitCode(func() { c.WriteEnvelope(filepath.Join(path, "x"), env) }); code != 1 {
		t.Errorf("writing under a file: exit %d, want 1", code)
	}
}
