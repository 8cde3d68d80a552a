#!/usr/bin/env bash
# Kernel-backend benchmark gate: run the BenchmarkEvalPlanKernels matrix
# (model × backend over the same compiled plan), emit the measured ns/op and
# within-run speedups to BENCH_kernels.json, and fail on a performance
# regression:
#
#   * blocked must beat scalar on the resnet workload by at least 1.15x
#     (the paper-scale machine measures ≥1.3, CI keeps headroom for noisy
#     shared runners), and
#   * no backend may fall behind scalar on any model by more than 1.35x
#     (blocked runs ahead of scalar on both models, with its sparse scatter
#     on hidden layers and its output-stationary loop on the dense stems,
#     so the bound only catches real regressions, not shared-runner
#     jitter).
#
# The bounds and the 5 evaluations per cell are constants, so loosening the
# gate takes a diff. SWIM_KERNEL_BENCH_JSON names the output file (default
# BENCH_kernels.json), so a verification run can leave the committed one
# alone.
#
# Only ratios measured inside a single `go test -bench` process are
# compared: absolute ns/op on shared runners swing by 1.5x between runs,
# within-run ratios stay stable. The 0 allocs/op budget for the same
# benchmarks is enforced separately by the eval-plan allocation gate, which
# matches every BenchmarkEvalPlan* name.
set -euo pipefail

cd "$(dirname "$0")/.."

iters=5
min_speedup=1.15
max_slowdown=1.35
out_json="${SWIM_KERNEL_BENCH_JSON:-BENCH_kernels.json}"

echo "== kernel backend benchmark (${iters} evals/op per cell) =="
raw="$(go test -run '^$' -bench 'BenchmarkEvalPlanKernels' -benchtime "${iters}x" .)"
echo "$raw"

echo "$raw" | awk \
  -v min_speedup="$min_speedup" -v max_slowdown="$max_slowdown" \
  -v out_json="$out_json" -v iters="$iters" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^BenchmarkEvalPlanKernels\// {
  split($1, parts, "/")
  model = parts[2]; backend = parts[3]
  sub(/-[0-9]+$/, "", backend)   # strip the -GOMAXPROCS suffix
  ns[model "/" backend] = $3
  if (!(model in seen_model)) { seen_model[model] = 1; models[++nm] = model }
  if (!(backend in seen_backend)) { seen_backend[backend] = 1; backends[++nb] = backend }
}
END {
  if (nm == 0) { print "bench_kernels: no BenchmarkEvalPlanKernels results parsed" > "/dev/stderr"; exit 1 }
  printf "{\n  \"benchmark\": \"BenchmarkEvalPlanKernels\",\n" > out_json
  printf "  \"evals_per_op\": %d,\n", iters > out_json
  printf "  \"cpu\": \"%s\",\n", cpu > out_json
  printf "  \"gate\": {\"min_blocked_speedup_resnet\": %s, \"max_slowdown_any\": %s},\n", min_speedup, max_slowdown > out_json
  printf "  \"ns_per_op\": {" > out_json
  for (i = 1; i <= nm; i++) {
    m = models[i]
    printf "%s\n    \"%s\": {", (i > 1 ? "," : ""), m > out_json
    for (j = 1; j <= nb; j++) {
      b = backends[j]
      printf "%s\"%s\": %d", (j > 1 ? ", " : ""), b, ns[m "/" b] > out_json
    }
    printf "}" > out_json
  }
  printf "\n  },\n  \"speedup_vs_scalar\": {" > out_json
  for (i = 1; i <= nm; i++) {
    m = models[i]
    printf "%s\n    \"%s\": {", (i > 1 ? "," : ""), m > out_json
    first = 1
    for (j = 1; j <= nb; j++) {
      b = backends[j]
      if (b == "scalar" || ns[m "/scalar"] == 0) continue
      printf "%s\"%s\": %.3f", (first ? "" : ", "), b, ns[m "/scalar"] / ns[m "/" b] > out_json
      first = 0
    }
    printf "}" > out_json
  }
  printf "\n  }\n}\n" > out_json

  status = 0
  for (i = 1; i <= nm; i++) {
    m = models[i]
    for (j = 1; j <= nb; j++) {
      b = backends[j]
      if (b == "scalar") continue
      sp = ns[m "/scalar"] / ns[m "/" b]
      printf "%s/%s: %.2fx vs scalar\n", m, b, sp
      if (sp * max_slowdown < 1) {
        printf "FAIL: %s on %s is %.2fx slower than scalar (budget %.2fx)\n", b, m, 1 / sp, max_slowdown > "/dev/stderr"
        status = 1
      }
    }
  }
  sp = ns["resnet/scalar"] / ns["resnet/blocked"]
  if (sp < min_speedup) {
    printf "FAIL: blocked on resnet is %.2fx vs scalar, want >= %.2fx\n", sp, min_speedup > "/dev/stderr"
    status = 1
  }
  exit status
}'

echo "wrote ${out_json}"
