#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload remote-invoke --seed 1 --seconds 30 --trace 0
#
# The toolchain's cache, module path and config, and the binary all live
# under .bench_build in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
