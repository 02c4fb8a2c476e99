#!/usr/bin/env bash
# run.sh is BENCHMARK.json's command: it builds the benchmark and the
# sbserver it spawns from the checkout it is started in, then runs the
# benchmark with the driver's arguments.
#
# Everything the build and the run write stays inside the checkout: the
# Go build cache, the binaries, temporary directories (probe stores, URL
# files) and the results directory all live under .bench_build/.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp" "$build/out"

export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomodcache
export GOTOOLCHAIN=local
export TMPDIR=$build/tmp

go build -buildvcs=false -o "$build/bin/" ./bench ./cmd/sbserver

exec "$build/bin/bench" -sbserver "$build/bin/sbserver" -out "$build/out" "$@"
