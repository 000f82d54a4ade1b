#!/usr/bin/env bash
# Builds the bench from the checkout it sits in and runs it; everything
# the build and the run write stays under .bench_build/ and bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
cd "$root"
go build -C bench -o "$build/flockbench" .
exec "$build/flockbench" "$@"
