#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (Go's caches too, so
# nothing is written outside the checkout) and runs it with the given flags.
# Run from the root of the checkout: bash benchmark/run.sh -workload gnmf -seed 1
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/gotmp" "$build/work"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C "$here" -o "$build/dmac-benchmark" .
exec "$build/dmac-benchmark" -work "$build/work" "$@"
