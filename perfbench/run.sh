#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload lib-factor --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache and config, binary, results,
# spans, tuner profiles) stays under .bench_build in the current
# directory.
set -euo pipefail
top=$(pwd)
out="$top/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
	go -C "$top/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
