#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments. Run it from anywhere; the build cache, temporary
# files and the binary all stay under benchmark/.bench_build.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/benchmark/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" # the go command's env file and telemetry counters
export GOTOOLCHAIN=local
export GOPROXY=off

go -C "$root/benchmark" build -o "$build/zion-benchmark" .
cd "$root"
exec "$build/zion-benchmark" "$@"
