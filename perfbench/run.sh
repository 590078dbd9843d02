#!/usr/bin/env bash
# Builds geostatd and the benchmark from the checkout it is run in, then
# runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload heatmap --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binaries, server logs, traces)
# goes under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
# Without the program's sources there is nothing to build or measure:
# fail before any tool starts.
if [ ! -f go.mod ] || [ ! -d cmd/geostatd ]; then
	echo "perfbench: run from the root of a geostat checkout (no go.mod or cmd/geostatd here)" >&2
	exit 2
fi
mkdir -p "$build/gocache" "$build/tmp" "$build/home/.config/go/telemetry"
# Telemetry off: otherwise each go command starts a detached upload
# process that can outlive the benchmark.
echo off >"$build/home/.config/go/telemetry/mode"
unset XDG_CONFIG_HOME
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" HOME="$build/home" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off
go build -o "$build/geostatd" ./cmd/geostatd
(cd perfbench && go build -o "$build/perfbench" .)
# Outside a git repository the commit is a digest of the Go sources.
commit=$(git rev-parse HEAD 2>/dev/null ||
	find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | sed 's/^/source-sha256:/; s/ .*//')
PERFBENCH_COMMIT="$commit" exec "$build/perfbench" \
	--geostatd "$build/geostatd" --out "$build/out" "$@"
