#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): builds the harness and runs
# it from the repository root, with every toolchain file kept inside the
# checkout.
#
#   bash bench/run.sh --workload <name|all> --seed N --seconds S --trace <0|1>
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C bench -o "$build/bench" .
# exec, so that a signal meant for the benchmark reaches the harness, which
# kills its children before it exits.
exec "$build/bench" "$@"
