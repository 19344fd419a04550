#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#   bash perfbench/run.sh --workload synth --seed 1 --seconds 20 --trace 0
# Every build artifact (Go's build cache and temporary files) stays inside
# the checkout, under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/go"
export GOCACHE="$build/cache" GOPATH="$build/path" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$GOCACHE" "$GOPATH" "$GOTMPDIR" "$XDG_CONFIG_HOME"
cd "$root/perfbench"
exec go run . "$@"
