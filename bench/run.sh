#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the Go
# toolchain writes (build cache, binaries) goes under .bench_build, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
