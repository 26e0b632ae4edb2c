#!/usr/bin/env bash
# Builds the benchmark from source and runs it, the way BENCHMARK.json names
# it: bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# (or with no --workload for the full run; see README.md).
#
# Everything the build leaves behind goes under .bench_build/ at the root of
# the checkout, and the program runs from this directory so that out/ lands
# beside it: nothing is read or written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local
cd "$here"
go build -o "$build/cartbenchmark" .
exec "$build/cartbenchmark" "$@"
