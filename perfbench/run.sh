#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload convert --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, the
# Chrome traces and all scratch files stay under .bench_build/ there.
set -euo pipefail

build="$(pwd)/.bench_build"
src="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS=

go -C "$src" build -o "$build/perfbench" .
exec "$build/perfbench" -work "$build/work" "$@"
