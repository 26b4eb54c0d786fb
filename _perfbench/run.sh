#!/usr/bin/env bash
# Builds the benchmark from this checkout's source, then runs one
# workload:
#
#   bash _perfbench/run.sh --workload ring --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. Everything it builds or writes lives
# under .bench_build/ in that root; the Go toolchain is used offline.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/_perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root (need go.mod and _perfbench/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/_perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -build "$build" "$@"
