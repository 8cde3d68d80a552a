#!/usr/bin/env bash
# CLI smoke test: build every cmd/swim-* binary and check the registry-flag
# convention they share through internal/cli. For every registry flag a
# binary takes:
#
#   - `-<flag> list` exits 0 and prints exactly the registry's names;
#   - a malformed spec exits 2 with a "<binary>: " line on stderr.
#
# A binary's own flag values that name an ablation or a policy (swim-ablate
# -what, swim-train and swim-fig1 -policy), a non-finite number in a comma
# list, and a sweep grid program.New would refuse (swim-scenario -times,
# swim-scenario and swim-pareto -nwcs) must be rejected the same way before
# any workload is built: nothing on stdout, and the -state directory left
# empty. So must swim-train's numeric flags (-train, -test, -epochs, -nwc,
# -sigma). A swim-calibrate -bits the device model refuses, or an -n below
# 1, exits 2 with nothing on stdout too.
#
# Every path exits before any workload is built, so nothing trains and the
# script runs in seconds.
set -euo pipefail

cd "$(dirname "$0")/.."
bindir="$(mktemp -d)"
trap 'rm -rf "$bindir"' EXIT
go build -o "$bindir" ./cmd/...

# The registries' names in the order `list` prints them (sorted). A
# registry that gains an entry is updated here too.
nonideal="d2d drift quantlevels retention stuckat"
calib="gainoffset pertile"
cost="lightening ramwich rram"
policies="insitu magnitude noverify random swim swim+calib"

fail=0

# expect_list <binary> <names> <args...>: exit 0, stdout the names one a line.
expect_list() {
  local bin=$1 want=$2 out code=0
  shift 2
  out="$("$bindir/$bin" "$@" 2>&1)" || code=$?
  if [ "$code" -ne 0 ] || [ "$out" != "$(tr ' ' '\n' <<<"$want")" ]; then
    echo "FAIL: $bin $*: exit $code, want 0 and: $want; printed:" >&2
    echo "$out" >&2
    fail=1
  fi
}

# expect_bad <binary> <args...>: exit 2 with a "<binary>: " line on stderr.
expect_bad() {
  local bin=$1 err code=0
  shift
  err="$("$bindir/$bin" "$@" 2>&1 >/dev/null)" || code=$?
  if [ "$code" -ne 2 ] || [ "${err#"$bin: "}" = "$err" ]; then
    echo "FAIL: $bin $*: exit $code, want 2 and a \"$bin: \" line; stderr:" >&2
    echo "$err" >&2
    fail=1
  fi
}

# expect_early <binary> <args...>: exit 2 with a "<binary>: " line on
# stderr, nothing on stdout, and an empty -state directory still empty: the
# value was rejected before any workload was built or trained.
expect_early() {
  local bin=$1 state out err code=0
  shift
  state="$bindir/state-$bin"
  mkdir "$state"
  out="$("$bindir/$bin" -state "$state" "$@" 2>"$bindir/stderr")" || code=$?
  err="$(cat "$bindir/stderr")"
  if [ "$code" -ne 2 ] || [ "${err#"$bin: "}" = "$err" ] || [ -n "$out" ] || [ -n "$(ls -A "$state")" ]; then
    echo "FAIL: $bin $*: exit $code, want 2, a \"$bin: \" line, no stdout and an empty -state; stderr:" >&2
    echo "$err" >&2
    echo "stdout: $out; -state holds: $(ls -A "$state")" >&2
    fail=1
  fi
  rm -rf "$state"
}

for bin in swim-table1 swim-fig1 swim-fig2 swim-ablate swim-calibrate swim-train; do
  expect_list "$bin" "$nonideal" -nonideal list
  expect_bad "$bin" -nonideal drift:nu=x
done
# swim-scenario's -nonideal is a ';'-separated list of stacks.
expect_list swim-scenario "$nonideal" -nonideal list
expect_bad swim-scenario -nonideal 'none;drift:nu=x'

for bin in swim-table1 swim-fig2 swim-scenario swim-pareto; do
  expect_list "$bin" "$calib" -calib list
  expect_bad "$bin" -calib gainoffset:probes=1
  expect_list "$bin" "$policies" -policies list
  expect_bad "$bin" -policies swim,nosuch
done

expect_list swim-pareto "$cost" -cost list
expect_bad swim-pareto -cost rram:par=0
expect_bad swim-pareto -cost none
expect_list swim-calibrate "$policies" -list-policies
# swim-calibrate builds no workload (it has no -state), but a -bits the
# device model refuses (M outside [1, 16]) must still exit 2 before the
# first row prints.
for bits in 0 -1 17 64; do
  expect_bad swim-calibrate -bits "$bits" -n 1000
  if [ -n "$("$bindir/swim-calibrate" -bits "$bits" -n 1000 2>/dev/null)" ]; then
    echo "FAIL: swim-calibrate -bits $bits printed to stdout before exiting" >&2
    fail=1
  fi
done
# Every row is a mean over -n weights, so fewer than one exits 2 too,
# before the first row prints.
for n in 0 -5; do
  expect_bad swim-calibrate -n "$n"
  if [ -n "$("$bindir/swim-calibrate" -n "$n" 2>/dev/null)" ]; then
    echo "FAIL: swim-calibrate -n $n printed to stdout before exiting" >&2
    fail=1
  fi
done

expect_early swim-ablate -what nosuch
expect_early swim-ablate -policy nosuch
expect_early swim-train -policy nosuch
# swim-train's numeric flags: a split smaller than the class count, no
# epochs, a negative or non-finite write budget, a bad device sigma.
for args in "-train 0" "-train 5" "-train -5" "-test 0" "-test 5" "-test -5" \
  "-epochs -2" "-epochs -2 -save $bindir/untrained.state" "-nwc -1" "-nwc NaN" \
  "-policy insitu -nwc inf" "-policy swim -nwc nan" "-sigma -1" "-sigma nan"; do
  # shellcheck disable=SC2086 # each entry is a flag list
  expect_early swim-train $args
done
if [ -e "$bindir/untrained.state" ]; then
  echo "FAIL: swim-train -epochs -2 -save wrote a model" >&2
  fail=1
fi
expect_early swim-fig1 -policy nosuch
expect_early swim-fig1 -policy insitu
expect_early swim-table1 -sigmas NaN
expect_early swim-scenario -times -5
expect_early swim-scenario -nwcs 0.3,0.1
expect_early swim-pareto -nwcs 0.3,0.1

if [ "$fail" -ne 0 ]; then
  echo "cli smoke: FAILED" >&2
  exit 1
fi
echo "cli smoke: ok"
