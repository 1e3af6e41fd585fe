#!/usr/bin/env bash
# Builds the benchmark inside the checkout (.bench_build/, compiler cache
# included, so nothing outside the checkout is written) and runs it from
# this directory with the caller's arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
cd "$here"
go build -o "$build/stitchbench" .
exec "$build/stitchbench" "$@"
