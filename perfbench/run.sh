#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments are passed through, for example:
#
#   bash perfbench/run.sh --workload durable-zipf --seed 1 --seconds 50 --trace 0
#
# Build outputs, the Go build cache and the journal files of durable
# workloads stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
