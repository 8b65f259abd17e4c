#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments, from the repository root. Everything the build and the run
# write stays under .bench_build/ in the checkout. See bench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOFLAGS= GOWORK=off GOENV=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd bench && go build -o "$build/rcoal-bench" .)
exec "$build/rcoal-bench" "$@"
