#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload batch-fgd --seed 7 --seconds 20 --trace 0
#
# This is the command BENCHMARK.json names. The binary, the Go build cache and
# the compiler's temporary files all stay under .bench_build/ in the checkout,
# so a run writes nothing outside it (run files go to bench/out/).
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp"
go build -o .bench_build/pgarm-bench ./bench
exec .bench_build/pgarm-bench "$@"
