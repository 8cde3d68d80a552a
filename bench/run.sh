#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload table1-lenet --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the go
# command's config, the binary) stays under .bench_build/ in the repository
# root, and a traced run writes its trace under bench/out/. No network access
# is needed: the module has no dependencies outside this repository.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0
# The go command keeps its config and telemetry under XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$build/config"

go -C "$root/bench" build -o "$build/swimbench" .
cd "$root"
exec "$build/swimbench" "$@"
