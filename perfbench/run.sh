#!/usr/bin/env bash
# Builds the benchmark harness and the gaugenn binary from the checkout it
# is run in, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload study|infer|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build product, cache and scratch
# file stays under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/gaugenn" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the gaugenn repository root (go.mod, cmd/gaugenn and perfbench/ must exist)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off GOTELEMETRY=off
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
go build -o "$build/gaugenn" ./cmd/gaugenn
exec "$build/perfbench" -bin "$build/gaugenn" -work "$build/work" "$@"
