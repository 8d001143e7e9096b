#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Called from the root of a checkout, as BENCHMARK.json's command does:
#
#   bash bench/run.sh --workload wire_small --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (the binary, Go's build cache, temporary files,
# module cache and the go command's own counters) stays under .bench_build/ in
# the checkout; everything the run writes stays under bench/out/.
set -euo pipefail
root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/bench" ]; then
	echo "bench/run.sh: run it from the root of a checkout of the repository" >&2
	exit 1
fi
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOTMPDIR=$build/tmp GOPATH=$build/gopath \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/mkse-bench" .
exec "$build/mkse-bench" "$@"
