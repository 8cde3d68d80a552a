#!/usr/bin/env bash
# Device-simulation cost gate. Write-verify's fine phase redraws a pulse
# until it lands within tolerance; at σ 0.5 and tolerance 0.06 about 90% of
# the draws miss. rng.GaussWithin decides most of those with a cheap lower
# bound (the squeeze step) instead of Norm's Log, Sqrt and Cos, and returns
# the bits of the plain loop.
#
# This runs the rng, device and nonideal microbenchmarks with -benchmem
# -count 5 (one test process per package, packages one after another),
# writes the per-benchmark medians and three within-process ratios to
# BENCH_device.json, and fails when BenchmarkGaussWithin (one fine phase,
# about 10.5 draws) takes more than max_ratio times BenchmarkNorm (one
# computed draw). With the squeeze the ratio is about 5; a build that
# computes every draw reads about 10.5.
#
# SWIM_DEVICE_BENCH_JSON names the output file (default
# BENCH_device.json), so a verification run can leave the committed one
# alone.
#
# Only ratios measured inside a single `go test -bench` process are
# compared: absolute ns/op on shared runners swing by 1.5x between runs,
# within-run ratios stay stable.
set -euo pipefail

cd "$(dirname "$0")/.."

count=5
max_ratio=7.5
out_json="${SWIM_DEVICE_BENCH_JSON:-BENCH_device.json}"

echo "== device simulation (-count ${count}) =="
raw="$(go test -p 1 -run '^$' \
  -bench '^Benchmark(Norm|GaussWithin|WriteVerifyWeight|ProgramNoVerify|DriftApply)$' \
  -benchmem -count "$count" ./internal/rng ./internal/device ./internal/nonideal)"
echo "$raw"

echo "$raw" | awk -v max_ratio="$max_ratio" -v out_json="$out_json" -v count="$count" '
# median of the n values v[1..n] (insertion sort; portable awk has no asort)
function median(v, n,    i, j, t) {
  for (i = 2; i <= n; i++) {
    t = v[i]
    for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
    v[j + 1] = t
  }
  return (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
}
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
  name = $1
  sub(/^Benchmark/, "", name)
  sub(/-[0-9]+$/, "", name) # the GOMAXPROCS suffix
  if (!(name in n)) order[++names] = name
  k = ++n[name]
  for (f = 2; f < NF; f++) {
    if ($(f + 1) == "ns/op") ns[name, k] = $f
    if ($(f + 1) == "B/op") by[name, k] = $f
    if ($(f + 1) == "allocs/op") al[name, k] = $f
  }
}
END {
  split("Norm GaussWithin WriteVerifyWeight/sigma=0.1 WriteVerifyWeight/sigma=0.5 DriftApply/unbound DriftApply/bound", need, " ")
  for (i in need) {
    if (n[need[i]] == 0) {
      printf "bench_device: missing Benchmark%s results\n", need[i] > "/dev/stderr"
      exit 1
    }
  }
  for (i = 1; i <= names; i++) {
    m = order[i]
    for (k = 1; k <= n[m]; k++) { a[k] = ns[m, k]; b[k] = by[m, k]; c[k] = al[m, k] }
    mns[m] = median(a, n[m]); mby[m] = median(b, n[m]); mal[m] = median(c, n[m])
  }
  squeeze = mns["GaussWithin"] / mns["Norm"]
  wv = mns["WriteVerifyWeight/sigma=0.5"] / mns["WriteVerifyWeight/sigma=0.1"]
  drift = mns["DriftApply/bound"] / mns["DriftApply/unbound"]

  printf "{\n  \"packages\": [\"internal/rng\", \"internal/device\", \"internal/nonideal\"],\n" > out_json
  printf "  \"count\": %d,\n", count > out_json
  printf "  \"cpu\": \"%s\",\n", cpu > out_json
  printf "  \"gate\": {\"max_gausswithin_over_norm\": %s},\n", max_ratio > out_json
  printf "  \"median\": {\n" > out_json
  for (i = 1; i <= names; i++) {
    m = order[i]
    printf "    \"%s\": {\"ns_per_op\": %.1f, \"bytes_per_op\": %d, \"allocs_per_op\": %d}%s\n", \
      m, mns[m], mby[m], mal[m], (i < names ? "," : "") > out_json
  }
  printf "  },\n" > out_json
  printf "  \"ratios\": {\n" > out_json
  printf "    \"gausswithin_over_norm\": %.3f,\n", squeeze > out_json
  printf "    \"writeverify_sigma05_over_sigma01\": %.3f,\n", wv > out_json
  printf "    \"drift_bound_over_unbound\": %.3f\n  }\n}\n", drift > out_json

  printf "GaussWithin/Norm: %.2fx (bound %.2fx); write-verify sigma 0.5/0.1: %.2fx; drift bound/unbound: %.2fx\n", \
    squeeze, max_ratio, wv, drift
  if (squeeze > max_ratio) {
    printf "FAIL: a fine phase costs %.2f computed draws, bound %.2f: is the squeeze in rng.GaussWithin deciding rejections?\n", \
      squeeze, max_ratio > "/dev/stderr"
    exit 1
  }
}'

echo "wrote ${out_json}"
