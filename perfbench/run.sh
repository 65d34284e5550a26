#!/usr/bin/env bash
# Builds the kifmm benchmark from source and runs it with the given
# arguments, from the root of a repository checkout:
#
#   bash perfbench/run.sh --workload yukawa-ellipsoid-50k --seed 1 --seconds 40 --trace 0
#
# Every build artefact (binary, Go build cache) stays under .bench_build in
# the checkout (or $CARGO_TARGET_DIR when set), so a run reads and writes
# nothing outside it.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a kifmm checkout (go.mod and perfbench/go.mod are required)" >&2
	exit 2
fi

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOFLAGS=-buildvcs=false
export GOENV=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
