#!/usr/bin/env bash
# Builds the benchmark into the checkout's .bench_build directory and runs
# it with the given arguments. Every Go cache and temp file stays inside
# the checkout, so the run reads and writes nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go -C "$root/bench" build -o "$build/lslbench" .
cd "$root"
exec "$build/lslbench" "$@"
