#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json "command"): builds
# ./bench from source into .bench_build/ inside the checkout — build
# cache and temporary files included, so nothing is read or written
# outside it — and runs it with the driver's arguments. Run it from the
# repository root. People can use `go run ./bench` instead.
set -euo pipefail
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp" GOFLAGS=-buildvcs=false
go build -o .bench_build/lumina-bench ./bench
exec .bench_build/lumina-bench "$@"
