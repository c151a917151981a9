#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash cxbench/run.sh --workload acq-cold --seed 1 --seconds 8 --trace 0
#   bash cxbench/run.sh steady --runs 10
#
# Every build product, cache and temporary file stays under .bench_build.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# Telemetry off, so the go command starts no background process.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go -C "$root/cxbench" build -o "$out/cxbench" .
exec "$out/cxbench" "$@"
