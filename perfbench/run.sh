#!/usr/bin/env bash
# Builds popserver and the benchmark program from this checkout, then runs one
# workload. Usage, from the repository root:
#
#   bash perfbench/run.sh --workload price-100k --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: binaries, the Go build cache, logs, traces and reports.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CACHE_HOME="$out/cache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go build -o "$out/bin/popserver" ./cmd/popserver
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -popserver "$out/bin/popserver" -out "$out" "$@"
