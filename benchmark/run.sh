#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. from the repository root:
#
#   bash benchmark/run.sh --workload episodes-scale --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files, Go's own config and telemetry, and the
# binary stay under .bench_build/ at the repository root. The build never
# fetches anything: the benchmark module depends only on the repository's
# own module, which must sit one directory up.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" ]]; then
	echo "benchmark: no go.mod at $root: run from a checkout of the whole repository" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/benchmark" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
