#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through to the benchmark, e.g.
#
#   bash benchmark/run.sh --workload oltp_sync --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config and
# telemetry) stays under .bench_build in the current directory, and the Go
# toolchain is never allowed to download anything.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd benchmark && go build -o "$out/ojv-benchmark" .)
exec "$out/ojv-benchmark" "$@"
