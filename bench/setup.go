package main

// Set-up is the cold workload build a user of the CLIs or the daemon waits
// for before the first trial: training, clean evaluation and the SWIM
// sensitivity pass. The experiments registry builds a workload at most once
// per process, so all timed builds but the last run in fresh child
// processes of this binary; the last runs in the measuring process, which
// then uses it. A speedMeter runs through all of them, so each build's time
// can be read at the reference speed.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"time"

	"swim/internal/experiments"
)

// setupEnv names the workload a setup child builds; main checks it before
// anything else.
const setupEnv = "SWIMBENCH_SETUP"

// build is one timed cold build; a setup child prints it.
type build struct {
	Start       int64   `json:"start"` // wall clock, Unix nanoseconds
	End         int64   `json:"end"`
	Fingerprint string  `json:"fingerprint"`
	slowdown    float64 // the machine's during the build, from the run's meter
}

func (b build) seconds() float64 { return float64(b.End-b.Start) / 1e9 }

// refSeconds is the build's time at the reference speed.
func (b build) refSeconds() float64 { return b.seconds() / b.slowdown }

// timedBuild builds wl's model cold and times it.
func timedBuild(wl *workload) (*experiments.Workload, build) {
	start := time.Now()
	w := wl.model()
	return w, build{Start: start.UnixNano(), End: time.Now().UnixNano(), Fingerprint: fingerprint(w)}
}

// setupChild is the whole program of a setup child: build the workload
// cold through the experiments registry, time it, and report.
func setupChild(name string) int {
	wl, err := lookup(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench setup:", err)
		return 2
	}
	_, b := timedBuild(wl)
	if err := json.NewEncoder(os.Stdout).Encode(b); err != nil {
		fmt.Fprintln(os.Stderr, "bench setup:", err)
		return 1
	}
	return 0
}

// setup times n cold builds of the workload, one after another: n−1 in
// child processes, the last in this process. It returns this process's
// build and fails unless every build produced the same model.
func setup(ctx context.Context, wl *workload, n int) (*experiments.Workload, []build, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	meter, err := startSpeedMeter(ctx)
	if err != nil {
		return nil, nil, err
	}
	var builds []build
	for i := 1; i < n; i++ {
		cmd := exec.CommandContext(ctx, exe)
		cmd.Env = append(os.Environ(), setupEnv+"="+wl.name)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			meter.close()
			return nil, nil, fmt.Errorf("setup build %d: %w", i, err)
		}
		var b build
		if err := json.Unmarshal(bytes.TrimSpace(out), &b); err != nil {
			meter.close()
			return nil, nil, fmt.Errorf("setup build %d: %w", i, err)
		}
		builds = append(builds, b)
	}
	w, last := timedBuild(wl)
	builds = append(builds, last)
	for i := range builds {
		b := &builds[i]
		b.slowdown = meter.slowdown(time.Unix(0, b.Start), time.Unix(0, b.End))
	}
	if _, err := meter.close(); err != nil {
		return nil, nil, err
	}
	for i, b := range builds[:n-1] {
		if b.Fingerprint != last.Fingerprint {
			return nil, nil, fmt.Errorf("setup build %d trained a different model than this process", i+1)
		}
	}
	return w, builds, nil
}

// fingerprint hashes what a build produces: clean accuracy, weight
// magnitudes and sensitivities.
func fingerprint(w *experiments.Workload) string {
	h := sha256.New()
	put := func(vs ...float64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	put(w.CleanAcc)
	put(w.Weights...)
	put(w.Hess...)
	return hex.EncodeToString(h.Sum(nil))
}
