#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload htap --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, scratch databases, trace files) goes
# under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -dir "$out/data" -trace-dir "$out/traces" "$@"
