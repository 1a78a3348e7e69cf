#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload align-crawl-cold --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory (Go build cache, module cache, temp files, the binary and the
# per-run scratch directory), so the checkout is the only place written.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off CGO_ENABLED=0
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" -workdir "$build" "$@"
