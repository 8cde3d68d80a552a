#!/usr/bin/env bash
# Hessian-pass cost gate. The paper (§3.3) claims its second-derivative pass
# "takes approximately the same amount of time and memory as conventional
# gradient computation". This runs BenchmarkGradientPass and
# BenchmarkHessianPass (LeNet, batch 32) in one process with -benchmem
# -count 5, writes the per-benchmark medians and the Hessian/gradient
# ns/op ratio to BENCH_hessian.json, and fails when that ratio exceeds 1.5
# or when either pass allocates at all. Both passes carve every buffer from
# caller scratch, so memory is held to 0 allocs/op, which is stricter than
# a bytes ratio (both read 0 B/op, a ratio of nothing).
#
# SWIM_HESSIAN_BENCH_JSON names the output file (default
# BENCH_hessian.json), so a verification run can leave the committed one
# alone.
#
# Only ratios measured inside a single `go test -bench` process are
# compared: absolute ns/op on shared runners swing by 1.5x between runs,
# within-run ratios stay stable.
set -euo pipefail

cd "$(dirname "$0")/.."

count=5
max_ratio=1.5
out_json="${SWIM_HESSIAN_BENCH_JSON:-BENCH_hessian.json}"

echo "== gradient vs Hessian pass (-count ${count}) =="
raw="$(go test -run '^$' -bench '^Benchmark(Gradient|Hessian)Pass$' -benchmem -count "$count" .)"
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
/^Benchmark(Gradient|Hessian)Pass/ {
  name = ($1 ~ /^BenchmarkGradientPass/) ? "gradient" : "hessian"
  k = ++n[name]
  for (f = 2; f < NF; f++) {
    if ($(f + 1) == "ns/op") ns[name, k] = $f
    if ($(f + 1) == "B/op") by[name, k] = $f
    if ($(f + 1) == "allocs/op") al[name, k] = $f
  }
}
END {
  if (n["gradient"] == 0 || n["hessian"] == 0) {
    print "bench_hessian: missing BenchmarkGradientPass/BenchmarkHessianPass results" > "/dev/stderr"
    exit 1
  }
  split("gradient hessian", names, " ")
  for (i = 1; i <= 2; i++) {
    m = names[i]
    for (k = 1; k <= n[m]; k++) { a[k] = ns[m, k]; b[k] = by[m, k]; c[k] = al[m, k] }
    mns[m] = median(a, n[m]); mby[m] = median(b, n[m]); mal[m] = median(c, n[m])
  }
  rns = mns["hessian"] / mns["gradient"]

  printf "{\n  \"benchmarks\": [\"BenchmarkGradientPass\", \"BenchmarkHessianPass\"],\n" > out_json
  printf "  \"count\": %d,\n", count > out_json
  printf "  \"cpu\": \"%s\",\n", cpu > out_json
  printf "  \"gate\": {\"max_ratio\": %s, \"max_allocs_per_op\": 0},\n", max_ratio > out_json
  printf "  \"median\": {\n" > out_json
  for (i = 1; i <= 2; i++) {
    m = names[i]
    printf "    \"%s\": {\"ns_per_op\": %d, \"bytes_per_op\": %d, \"allocs_per_op\": %d}%s\n", \
      m, mns[m], mby[m], mal[m], (i < 2 ? "," : "") > out_json
  }
  printf "  },\n" > out_json
  printf "  \"hessian_over_gradient\": {\"ns_per_op\": %.3f}\n}\n", rns > out_json

  printf "hessian/gradient: %.2fx ns/op (bound %.2fx); allocs/op %d and %d (bound 0)\n", rns, max_ratio, mal["gradient"], mal["hessian"]
  status = 0
  if (rns > max_ratio) {
    printf "FAIL: Hessian pass takes %.2fx the gradient pass time, bound %.2fx\n", rns, max_ratio > "/dev/stderr"
    status = 1
  }
  for (i = 1; i <= 2; i++) {
    m = names[i]
    for (k = 1; k <= n[m]; k++) {
      if (al[m, k] + 0 > 0) {
        printf "FAIL: %s pass allocates %d allocs/op in run %d, bound 0\n", m, al[m, k], k > "/dev/stderr"
        status = 1
      }
    }
  }
  exit status
}'

echo "wrote ${out_json}"
