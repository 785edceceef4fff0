#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on:
#
#   bash perfbench/run.sh --workload fill-cold --seed 1 --seconds 20 --trace 0
#
# The build, the Go build cache and the run outputs stay under the
# build directory ($CARGO_TARGET_DIR, default .bench_build) inside the
# checkout. Build output goes to standard error, so the last line of
# standard output is the benchmark's JSON result.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
