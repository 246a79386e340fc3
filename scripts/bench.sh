#!/usr/bin/env sh
# Regenerates the committed benchmark row files at the repo root, one
# BENCH_<suite>.json per suite named on the command line:
#
#   scripts/bench.sh                 # ingest, gorder and serve
#   scripts/bench.sh gorder serve    # just those two
#
#   ingest  internal/graph's ingest benchmarks (edge-list parse, CSR
#           build, binary load; serial vs parallel), benchtime 1s.
#   gorder  internal/core's greedy benchmarks (BenchmarkOrderWith window
#           sweep + hub ablation, BenchmarkOrderPartitioned with its
#           F/exact, BenchmarkUnitHeapChurn), benchtime 1x.
#   serve   gorderbench's mixed upload/order/query/edit traffic against a
#           store-backed gorderd at c=4 and c=16, 10 s per level.
#
# Every file is {suite, commit, cores, go, rows: [{name, metric, unit,
# value}]}. The commit is the VCS revision the tools were built from,
# suffixed -dirty for an uncommitted tree. cmd/benchdiff gates the
# ingest and gorder files in scripts/ci.sh.
set -eu

cd "$(dirname "$0")/.."

WORKDIR=$(mktemp -d)
GD=''
trap 'if [ -n "$GD" ]; then kill "$GD" 2>/dev/null || true; fi; rm -rf "$WORKDIR"' EXIT

[ $# -gt 0 ] || set -- ingest gorder serve
for suite in "$@"; do
    case $suite in
    ingest | gorder | serve) ;;
    *)
        echo "usage: scripts/bench.sh [ingest|gorder|serve ...]" >&2
        exit 2
        ;;
    esac
done

# Built, not run with go run, so the binaries carry the VCS revision.
go build -o "$WORKDIR/benchdiff" ./cmd/benchdiff

# gobench PKG PATTERN BENCHTIME SUITE runs one package's benchmarks
# and records their rows as BENCH_SUITE.json.
gobench() {
    go test "$1" -run='^$' -bench="$2" -benchmem -benchtime="$3" >"$WORKDIR/$4.txt"
    cat "$WORKDIR/$4.txt"
    "$WORKDIR/benchdiff" -write "BENCH_$4.json" "$WORKDIR/$4.txt"
}

serve() {
    go build -o "$WORKDIR/gorderd" ./cmd/gorderd
    go build -o "$WORKDIR/gorderbench" ./cmd/gorderbench
    "$WORKDIR/gorderd" -addr 127.0.0.1:0 -workers 2 -manifest '' \
        -data-dir "$WORKDIR/data" >"$WORKDIR/gorderd.log" 2>&1 &
    GD=$!
    ADDR=''
    i=0
    while [ $i -lt 50 ]; do
        ADDR=$(awk '/listening on/ {print $NF}' "$WORKDIR/gorderd.log")
        [ -n "$ADDR" ] && break
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$ADDR" ]; then
        echo "gorderd did not report a listen address" >&2
        cat "$WORKDIR/gorderd.log" >&2
        exit 1
    fi
    "$WORKDIR/gorderbench" -url "http://$ADDR" -duration 10s \
        -concurrency 4,16 -nodes 2000 -tenants acme,beta,free \
        -json BENCH_serve.json
    kill "$GD"
    wait "$GD" 2>/dev/null || true
    GD=''
    echo "wrote BENCH_serve.json"
}

for suite in "$@"; do
    case $suite in
    ingest) gobench ./internal/graph/ '^(BenchmarkReadEdgeList|BenchmarkFromEdges|BenchmarkReadBinary)$' 1s ingest ;;
    gorder) gobench ./internal/core/ '^(BenchmarkOrderWith|BenchmarkOrderPartitioned|BenchmarkUnitHeapChurn)$' 1x gorder ;;
    serve) serve ;;
    esac
done
