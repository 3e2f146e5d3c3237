#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (build cache included, so nothing is written outside it) and runs
# it with the caller's arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
cd "$here"
go build -o "$root/.bench_build/bionic-benchmark" .
exec "$root/.bench_build/bionic-benchmark" "$@"
