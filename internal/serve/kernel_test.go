package serve

import (
	"bytes"
	"net/http"
	"testing"

	"swim/internal/serialize"
)

// TestNormalizeKernelCanonical pins the kernel axis's cache contract: specs
// canonicalize ("" and kernel.Default()'s spec, blocked, collapse to the
// default form; an explicit "scalar" survives, so it still runs on scalar),
// the axis is excluded from the canonical key, the daemon default fills
// empty requests, and a malformed spec is rejected at submission.
func TestNormalizeKernelCanonical(t *testing.T) {
	s, _ := newTestServer(t, Config{TotalWorkers: 1})
	norm := func(k string) *serialize.RequestRecord {
		t.Helper()
		n, err := s.normalize(&serialize.RequestRecord{Kind: serialize.KindSweep, Workload: "test", Kernel: k})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	key := func(k string) string {
		t.Helper()
		ck, err := norm(k).CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}
	if got := norm("blocked").Kernel; got != "" {
		t.Errorf(`"blocked" normalized to %q, want the empty default form`, got)
	}
	if got := norm("scalar").Kernel; got != "scalar" {
		t.Errorf(`"scalar" normalized to %q, want "scalar"`, got)
	}
	if got := norm("parallel:workers=0").Kernel; got != "parallel" {
		t.Errorf(`"parallel:workers=0" normalized to %q, want "parallel"`, got)
	}
	if key("") != key("scalar") || key("scalar") != key("parallel:workers=3") {
		t.Error("kernel axis leaked into the canonical key")
	}
	if _, err := s.normalize(&serialize.RequestRecord{Kind: serialize.KindSweep, Workload: "test", Kernel: "simd9000"}); err == nil {
		t.Error("unknown kernel backend accepted")
	}
	if _, err := s.normalize(&serialize.RequestRecord{Kind: serialize.KindSweep, Workload: "test", Kernel: "parallel:workers=1.5"}); err == nil {
		t.Error("fractional worker count accepted")
	}

	// A daemon started with a default backend applies it to requests that
	// leave the axis empty — without touching their cache identity.
	d, _ := newTestServer(t, Config{TotalWorkers: 1, Kernel: "scalar"})
	dn, err := d.normalize(&serialize.RequestRecord{Kind: serialize.KindSweep, Workload: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if dn.Kernel != "scalar" {
		t.Errorf("daemon default not applied: kernel = %q", dn.Kernel)
	}
	dk, err := dn.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if dk != key("") {
		t.Error("daemon-default kernel changed the canonical key")
	}
}

// TestServeKernelAxisByteIdentity pins the determinism contract over HTTP: a
// request computed with the parallel backend returns an envelope
// byte-identical to the default-backend CLI path, and a follow-up request
// differing only in kernel — an explicit "scalar", which normalization
// keeps — is answered from the cache (shared canonical key).
func TestServeKernelAxisByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{TotalWorkers: 2})
	req := testRequest(505, "")
	want := referenceEnvelope(t, req) // kernel.Default(), sequential

	req.Kernel = "parallel:workers=2"
	rec, code := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit code %d", code)
	}
	if done := await(t, ts, rec.ID); done.Status != serialize.JobDone {
		t.Fatalf("job %s (%s)", done.Status, done.Error)
	}
	if got := fetchResult(t, ts, rec.ID); !bytes.Equal(got, want) {
		t.Errorf("parallel-kernel result differs from the default-kernel CLI path:\nhttp: %s\ncli:  %s", got, want)
	}

	req.Kernel = "scalar"
	second, code := submit(t, ts, req)
	if code != http.StatusOK || !second.Cached {
		t.Fatalf("kernel-only change missed the cache: %d %+v", code, second)
	}
}
