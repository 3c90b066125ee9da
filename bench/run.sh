#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json's command). It keeps the
# Go build cache inside the checkout, builds the harness, and runs it with
# the driver's arguments (--workload, --seed, --seconds, --trace). By hand,
# `go run -C bench ./jitperf` does the same with the user's own build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C bench -o "$build/jitperf" ./jitperf
exec "$build/jitperf" "$@"
