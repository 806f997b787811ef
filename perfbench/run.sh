#!/usr/bin/env bash
# Builds the benchmark, hkprserver and graphgen from this checkout's sources
# into .bench_build, then runs the benchmark with the given arguments.  Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload warm-hits --seed 1 --seconds 20 --trace 0
#
# The Go build and module caches, and the go command's config directory, live
# under .bench_build too, so the run writes nothing outside the checkout (the
# first build therefore also compiles the standard library).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
go build -o "$out/hkprserver" ./cmd/hkprserver
go build -o "$out/graphgen" ./cmd/graphgen
exec "$out/perfbench" -bin "$out" "$@"
