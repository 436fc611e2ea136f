#!/usr/bin/env bash
# Builds perfbench from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload decompose-dense --seed 1 --seconds 30 --trace 0
#
# Every build output and cache stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GO111MODULE=on
go -C perfbench build -o "$build/perfbench.bin" .
exec "$build/perfbench.bin" "$@"
