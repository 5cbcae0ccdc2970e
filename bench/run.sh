#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#	sh bench/run.sh --workload stateless-frame --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, GOPATH, the go command's config directory
# (where it keeps telemetry counters), the binary, and the temporary
# directories (state dirs, model files, traces) the benchmark creates.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The module has no external dependencies: never reach for a network or
# another toolchain.
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/mcdc-bench" .)
exec "$build/mcdc-bench" "$@"
