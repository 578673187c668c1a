#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload set-sample --seed 1 --seconds 10 --trace 0
#
# Every build product (compiler cache, temp files, the benchmark binary)
# stays under .bench_build in the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=mod

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
