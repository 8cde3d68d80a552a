#!/usr/bin/env bash
# Cell-group gate. A serve-coord worker's shard runs a swim cell and a
# noverify cell over common device instances; as one program.Group they
# share each trial's set-up (mapping.New, drift and calibration instances)
# and the measurement of the untouched network, so adding the noverify cell
# costs little more than minting its trial. Cells that each rebuilt the
# trial cost about 1.3 times swim alone.
#
# This runs BenchmarkScenarioShard (swim, swim+noverify: one one-trial
# shard of serve-coord's request at one worker) and BenchmarkRank (the
# swim and magnitude rankings of LeNet, and the stable comparator sort they
# replaced) with -benchmem -count 5 in one test process, writes the medians
# and ratios to BENCH_group.json, and fails when swim+noverify takes more
# than max_ratio times swim.
#
# SWIM_GROUP_BENCH_JSON names the output file (default
# BENCH_group.json), so a verification run can leave the committed one
# alone.
#
# Only ratios measured inside a single `go test -bench` process are
# compared: absolute ns/op on shared runners swing by 1.5x between runs,
# within-run ratios stay stable.
set -euo pipefail

cd "$(dirname "$0")/.."

count=5
benchtime=40x
max_ratio=1.2
out_json="${SWIM_GROUP_BENCH_JSON:-BENCH_group.json}"

echo "== cell groups and ranking (-count ${count}, -benchtime ${benchtime}) =="
raw="$(go test -run '^$' -bench '^Benchmark(ScenarioShard|Rank)$' \
  -benchmem -benchtime "$benchtime" -count "$count" .)"
echo "$raw"

echo "$raw" | awk -v max_ratio="$max_ratio" -v out_json="$out_json" -v count="$count" -v benchtime="$benchtime" '
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
  split("ScenarioShard/swim ScenarioShard/swim+noverify Rank/swim Rank/magnitude Rank/swim-comparator Rank/magnitude-comparator", need, " ")
  for (i in need) {
    if (n[need[i]] == 0) {
      printf "bench_group: missing Benchmark%s results\n", need[i] > "/dev/stderr"
      exit 1
    }
  }
  for (i = 1; i <= names; i++) {
    m = order[i]
    for (k = 1; k <= n[m]; k++) { a[k] = ns[m, k]; b[k] = by[m, k]; c[k] = al[m, k] }
    mns[m] = median(a, n[m]); mby[m] = median(b, n[m]); mal[m] = median(c, n[m])
  }
  group = mns["ScenarioShard/swim+noverify"] / mns["ScenarioShard/swim"]
  rswim = mns["Rank/swim"] / mns["Rank/swim-comparator"]
  rmag = mns["Rank/magnitude"] / mns["Rank/magnitude-comparator"]

  printf "{\n  \"package\": \"swim\",\n" > out_json
  printf "  \"count\": %d,\n  \"benchtime\": \"%s\",\n", count, benchtime > out_json
  printf "  \"cpu\": \"%s\",\n", cpu > out_json
  printf "  \"gate\": {\"max_swim_noverify_over_swim\": %s},\n", max_ratio > out_json
  printf "  \"median\": {\n" > out_json
  for (i = 1; i <= names; i++) {
    m = order[i]
    printf "    \"%s\": {\"ns_per_op\": %.1f, \"bytes_per_op\": %d, \"allocs_per_op\": %d}%s\n", \
      m, mns[m], mby[m], mal[m], (i < names ? "," : "") > out_json
  }
  printf "  },\n" > out_json
  printf "  \"ratios\": {\n" > out_json
  printf "    \"swim_noverify_over_swim\": %.3f,\n", group > out_json
  printf "    \"rank_swim_over_comparator\": %.3f,\n", rswim > out_json
  printf "    \"rank_magnitude_over_comparator\": %.3f\n  }\n}\n", rmag > out_json

  printf "swim+noverify/swim: %.2fx (bound %.2fx); rank swim/comparator: %.2fx; rank magnitude/comparator: %.2fx\n", \
    group, max_ratio, rswim, rmag
  if (group > max_ratio) {
    printf "FAIL: a swim+noverify shard costs %.2f swim shards, bound %.2f: do the cells share their trial set-up?\n", \
      group, max_ratio > "/dev/stderr"
    exit 1
  }
}'

echo "wrote ${out_json}"
