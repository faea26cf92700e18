#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the repository
# root with the benchmark's flags, for example:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) inside the checkout: the Go
# build cache, temporary files, scratch stores, spans and profiles.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ expected)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
out="$build"
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --artifacts "$build/perfbench-run" "$@"
