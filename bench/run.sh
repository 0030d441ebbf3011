#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Everything the build writes stays inside the checkout, under
# .bench_build: the binary and, unless the caller already chose one,
# the Go build cache. Arguments go to the binary unchanged.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="${GOCACHE:-$out/gocache}" GOTOOLCHAIN=local
go build -o "$out/maya-bench" ./bench
exec "$out/maya-bench" "$@"
