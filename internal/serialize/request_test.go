package serialize

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	req := &RequestRecord{
		Version: RequestVersion, Kind: KindScenario, Workload: "lenet",
		Sigmas: []float64{1.0}, Policies: []string{"swim", "noverify"},
		NWCs: []float64{0, 0.1}, Scenarios: "none;drift", Times: []float64{0, 3600},
		Seed: 4000, Trials: 8, EvalBatch: 64,
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != req.Kind || got.Workload != req.Workload || got.Seed != req.Seed ||
		got.Scenarios != req.Scenarios || len(got.Policies) != 2 || got.Trials != 8 {
		t.Fatalf("round trip mangled the request: %+v", got)
	}
}

// Forward compatibility: unknown top-level fields written by a newer
// version survive decode → encode.
func TestRequestPreservesUnknownFields(t *testing.T) {
	future := `{"version": 9, "kind": "sweep", "workload": "lenet",
		"priority": "high", "tenant": {"org": 42}}`
	req, err := DecodeRequest(strings.NewReader(future))
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Extra) != 2 {
		t.Fatalf("unknown fields not preserved: %v", req.Extra)
	}
	out, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"priority":"high"`, `"org":42`, `"kind":"sweep"`} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("re-encoded request missing %s: %s", want, out)
		}
	}
}

func TestCanonicalKey(t *testing.T) {
	a := &RequestRecord{Version: 1, Kind: KindSweep, Workload: "lenet", Seed: 5, Trials: 4}
	b := &RequestRecord{Version: 1, Kind: KindSweep, Workload: "lenet", Seed: 5, Trials: 4}
	ka, err := a.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("equal requests hash differently: %s vs %s", ka, kb)
	}
	// The key is what result caches and coordinator journals are filed
	// under, so it must not drift between versions: this request hashed to
	// the same value before the kernel field was dropped from the record.
	if want := "ab19def9ddbbe0671f509f7f1f2e2bbb5f0ddc186631cde5b1c980611d0e8c4c"; ka != want {
		t.Fatalf("canonical key drifted: %s, want %s", ka, want)
	}
	b.Seed = 6
	if kb, _ = b.CanonicalKey(); ka == kb {
		t.Fatal("different seeds share a canonical key")
	}
	// Unknown (future) fields must influence the key: a request this
	// version cannot fully interpret is not the same computation.
	c, err := DecodeRequest(strings.NewReader(`{"version":1,"kind":"sweep","workload":"lenet","seed":5,"trials":4,"future_knob":1}`))
	if err != nil {
		t.Fatal(err)
	}
	kc, err := c.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Fatal("unknown field did not change the canonical key")
	}
	// "kernel" is no longer a field: a request carrying it keeps it as an
	// unknown field, which the daemon rejects, and it hashes like one.
	d, err := DecodeRequest(strings.NewReader(`{"version":1,"kind":"sweep","workload":"lenet","seed":5,"trials":4,"kernel":"blocked"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Extra["kernel"]; !ok || len(d.Extra) != 1 {
		t.Fatalf("kernel not kept as an unknown field: %v", d.Extra)
	}
	if kd, _ := d.CanonicalKey(); kd == ka {
		t.Fatal("the kernel field did not change the canonical key")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env := &ResultEnvelope{Cells: []CellRecord{{
		Workload: "lenet", Sigma: 1, Scenario: "none", Policy: "swim",
		Result: &ResultRecord{Version: ResultVersion, Policy: "swim", Trials: 2},
	}}}
	var buf bytes.Buffer
	if err := EncodeEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEnvelope(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != 1 || got.Cells[0].Result.Policy != "swim" {
		t.Fatalf("envelope round trip mangled cells: %+v", got)
	}
}
