#!/usr/bin/env bash
# Builds the benchmark driver (bench/btbench) from this checkout and runs one
# workload with the given arguments. Run it from the repository root:
#
#   bash bench/bench.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# The build output and every Go cache and config file stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build); nothing is
# downloaded. Outside a full checkout the build fails and nothing is printed
# on standard output.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export HOME="$build/home" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS=
export GOTOOLCHAIN=local GOPROXY=off PPROF_TMPDIR="$build/pprof"

go -C bench build -o "$build/btbench" ./btbench
exec "$build/btbench" "$@"
