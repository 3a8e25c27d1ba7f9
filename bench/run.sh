#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the build and the run write stays
# under .bench_build/ (build cache, binary, broker data directories)
# and bench/out/ (spans of traced runs).
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C bench -o "$build/octopus-bench" .
exec "$build/octopus-bench" "$@"
