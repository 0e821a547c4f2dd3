#!/bin/sh
# Builds the benchmark from the surrounding checkout's source and runs it
# with the given arguments, e.g.
#
#   sh benchmark/run.sh --workload sim-baseline --seed 0 --seconds 24 --trace 0
#
# The Go build cache, the binary and the go command's own state all live
# under .bench_build at the checkout root, so nothing is written outside
# the checkout. Without the simulator's source next to this directory the
# build fails and the script exits non-zero before any result is printed.
set -eu

bench_dir=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench_dir")
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

go -C "$bench_dir" build -o "$build/bce-benchmark" .
exec "$build/bce-benchmark" "$@"
