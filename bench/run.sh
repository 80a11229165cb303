#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags. Run it from the
# repository root:
#
#   bash bench/run.sh --workload mesh --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary and -trace artifacts.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
(
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
	go -C "$root/bench" build -buildvcs=false -o "$build/bench" .
)
exec "$build/bench" "$@"
