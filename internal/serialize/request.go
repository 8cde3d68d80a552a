package serialize

// This file implements the serving tier's wire format: request records (what
// a client asks the swim-serve daemon to compute), job envelopes (the
// daemon's bookkeeping around one request), and result envelopes (the cells
// a completed job produced). Requests follow the same forward-compatibility
// contract as result records — unknown top-level fields survive a
// decode → encode round trip — and carry a canonical content hash
// (CanonicalKey) the daemon caches results under: two requests with equal
// keys are the same computation, and the determinism contract makes their
// results bit-identical.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// RequestVersion is the record version written for serving requests.
const RequestVersion = 1

// Request kinds accepted by the serving tier. Every kind expands to the
// same cell grid — sigmas × scenarios × read times × policies, each cell a
// fixed-NWC accuracy sweep — differing only in defaults: "sweep" is a
// single cell, "scenario" a robustness cross product, "table1" the paper's
// σ-grid protocol, "fig2" one figure panel at the high-variation point.
const (
	KindSweep    = "sweep"
	KindScenario = "scenario"
	KindTable1   = "table1"
	KindFig2     = "fig2"
)

// RequestRecord is the serialized form of one serving request. Zero-valued
// fields take kind- and workload-appropriate defaults at validation time
// (the daemon normalizes before hashing, so a request and its explicit
// normalization share a canonical key). Unknown JSON fields encountered on
// decode are retained in Extra and re-emitted on encode.
type RequestRecord struct {
	Version int `json:"version"`
	// Kind is one of the Kind* constants ("" defaults to "sweep").
	Kind string `json:"kind,omitempty"`
	// Workload names a registry workload (lenet | convnet | resnet | tiny).
	Workload string `json:"workload,omitempty"`
	// Sigmas is the device-variation grid (kind table1 defaults to the
	// paper's three-σ grid, others to a single high-variation point).
	Sigmas []float64 `json:"sigmas,omitempty"`
	// Policies are registry policy names.
	Policies []string `json:"policies,omitempty"`
	// NWCs is the write-budget grid every cell walks.
	NWCs []float64 `json:"nwcs,omitempty"`
	// Scenarios is a ';'-separated nonideality scenario list, models
	// stacked with '+' — the swim-scenario grammar ("" = ideal baseline).
	Scenarios string `json:"scenarios,omitempty"`
	// Times are the read times in seconds after programming.
	Times []float64 `json:"times,omitempty"`
	// Cost names a hardware cost model spec (package cost grammar, e.g.
	// "rram" or "rram:write_pj=12"); "" and "none" disable cost accounting.
	// The daemon canonicalizes the spec before hashing, so "rram" and its
	// spelled-out form share a cache key, while different models never do —
	// the cost axis participates in the canonical key like every other
	// field.
	Cost string `json:"cost,omitempty"`
	// Calib names a calibration-model spec (package calib grammar, e.g.
	// "gainoffset" or "pertile:probes=16"); "" and "none" disable the
	// calibration stage. The daemon canonicalizes the spec before hashing.
	// Calib changes results — corrected read-outs are a different
	// computation — so it participates in the canonical key like the cost
	// axis does.
	Calib string `json:"calib,omitempty"`
	// Seed is the Monte-Carlo master seed shared by every cell.
	Seed uint64 `json:"seed,omitempty"`
	// Trials is the Monte-Carlo trial count per cell.
	Trials int `json:"trials,omitempty"`
	// EvalBatch is the accuracy-measurement batch size.
	EvalBatch int `json:"eval_batch,omitempty"`

	// Extra holds top-level fields written by a newer version, preserved
	// verbatim across a decode → encode round trip.
	Extra map[string]json.RawMessage `json:"-"`
}

// knownRequestFields mirrors the json tags above; keep in sync when adding
// fields.
var knownRequestFields = []string{
	"version", "kind", "workload", "sigmas", "policies", "nwcs",
	"scenarios", "cost", "calib", "times", "seed", "trials", "eval_batch",
}

// MarshalJSON emits the known fields plus any preserved unknown ones.
func (r RequestRecord) MarshalJSON() ([]byte, error) {
	type bare RequestRecord // strip methods to avoid recursion
	return marshalWithExtra(bare(r), r.Extra)
}

// UnmarshalJSON decodes the known fields and stashes unknown top-level
// fields in Extra.
func (r *RequestRecord) UnmarshalJSON(data []byte) error {
	type bare RequestRecord
	var b bare
	if err := json.Unmarshal(data, &b); err != nil {
		return err
	}
	*r = RequestRecord(b)
	extra, err := splitExtra(data, knownRequestFields)
	if err != nil {
		return err
	}
	r.Extra = extra
	return nil
}

// CanonicalKey returns a stable content hash of the record: every top-level
// field (preserved unknown fields included) serialized in sorted-key order
// and hashed with SHA-256. Together with the determinism contract this is a
// result-cache key — equal keys mean bit-identical results. Hash the
// normalized request, not the raw client payload, so a request and its
// filled-in-defaults form share a key.
func (r *RequestRecord) CanonicalKey() (string, error) {
	raw, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("serialize: canonical key: %w", err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return "", fmt.Errorf("serialize: canonical key: %w", err)
	}
	// encoding/json marshals maps in sorted-key order, which canonicalizes
	// the top level; array order below it is semantic and kept as-is.
	canon, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("serialize: canonical key: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// DecodeRequest reads one JSON request record from rd.
func DecodeRequest(rd io.Reader) (*RequestRecord, error) {
	var rec RequestRecord
	if err := json.NewDecoder(rd).Decode(&rec); err != nil {
		return nil, fmt.Errorf("serialize: decode request: %w", err)
	}
	return &rec, nil
}

// Job statuses reported by the serving tier.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// CellRecord ties one pipeline result to its position in the request grid.
type CellRecord struct {
	Workload string        `json:"workload"`
	Sigma    float64       `json:"sigma"`
	Scenario string        `json:"scenario"`
	ReadTime float64       `json:"read_time"`
	Policy   string        `json:"policy"`
	Result   *ResultRecord `json:"result"`
}

// ResultEnvelope is the payload of a completed job: one cell per
// (sigma, scenario, read time, policy) combination, in grid order. The
// swim-scenario CLI's -json output and the daemon's result endpoint emit
// the identical envelope, which is what the end-to-end smoke test diffs.
type ResultEnvelope struct {
	Cells []CellRecord `json:"cells"`
}

// EncodeEnvelope writes env to w as an indented JSON document (the same
// layout EncodeResult uses, so CLI and daemon output diff cleanly).
func EncodeEnvelope(w io.Writer, env *ResultEnvelope) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}

// DecodeEnvelope reads one JSON result envelope from rd.
func DecodeEnvelope(rd io.Reader) (*ResultEnvelope, error) {
	var env ResultEnvelope
	if err := json.NewDecoder(rd).Decode(&env); err != nil {
		return nil, fmt.Errorf("serialize: decode envelope: %w", err)
	}
	return &env, nil
}

// JobRecord is the serving daemon's job envelope: the submitted (and
// normalized) request plus its lifecycle status. Result payloads are not
// embedded — clients fetch them from the job's result endpoint once Status
// is "done". Timestamps are Unix milliseconds (0 = not reached).
type JobRecord struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Cached reports that the result was served from the canonical-key
	// cache instead of recomputed.
	Cached bool `json:"cached,omitempty"`
	// Coalesced reports that the job attached to an identical in-flight
	// job's execution (single-flight) instead of starting its own.
	Coalesced bool           `json:"coalesced,omitempty"`
	Request   *RequestRecord `json:"request,omitempty"`
	Error     string         `json:"error,omitempty"`
	Submitted int64          `json:"submitted_ms,omitempty"`
	Started   int64          `json:"started_ms,omitempty"`
	Finished  int64          `json:"finished_ms,omitempty"`
	// Progress reports how far a running job has advanced (omitted until the
	// job starts executing); see ProgressRecord.
	Progress *ProgressRecord `json:"progress,omitempty"`
}
