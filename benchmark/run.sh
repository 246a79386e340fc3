#!/usr/bin/env bash
# Builds gorderd and the benchmark from the checkout this is run in,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload query-cold --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, daemon data and spans.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/gorderd || ! -f benchmark/go.mod ]]; then
	echo "run.sh: run from the repository root (go.mod, cmd/gorderd and benchmark/ are needed)" >&2
	exit 2
fi

build=.bench_build
mkdir -p "$build/bin" "$build/tmp" "$build/home"
build=$(cd "$build" && pwd)

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export HOME=$build/home XDG_CONFIG_HOME=$build/home XDG_CACHE_HOME=$build/home
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/bin/gorderd" ./cmd/gorderd
(cd benchmark && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -gorderd "$build/bin/gorderd" -work "$build/work" "$@"
