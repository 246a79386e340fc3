#!/usr/bin/env sh
# CI gate: build everything, vet everything, and run the full test
# suite under the race detector (the server's worker pool must be
# race-clean). Run from anywhere; operates on the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "==> single-dispatch gate (name switches only in internal/registry)"
# All ordering/kernel dispatch-by-name must live in internal/registry;
# a name switch anywhere else reintroduces the drift this repo removed.
if grep -rn --include='*.go' -e 'switch strings\.ToLower' -e 'case Kernel[A-Z]' \
    cmd internal examples ./*.go 2>/dev/null | grep -v '^internal/registry/'; then
    echo "FAIL: ordering/kernel name dispatch outside internal/registry" >&2
    exit 1
fi

echo "==> store encapsulation gate (data-dir layout private to internal/store)"
# Only internal/store may touch the on-disk layout (graphs/, orders/,
# results/, manifest.json). Anything else reaching into the data dir
# bypasses the checksums, residency accounting, and crash-safe manifest
# updates. Tests are exempt: failure-injection tests corrupt blobs in
# place on purpose.
if grep -rn --include='*.go' --exclude='*_test.go' \
    -E 'filepath\.Join\([^)]*"(graphs|orders|results|manifest\.json)"' \
    cmd internal examples ./*.go 2>/dev/null | grep -v '^internal/store/'; then
    echo "FAIL: data-dir layout accessed outside internal/store" >&2
    exit 1
fi

echo "==> kernel execution gate (query/server reach kernels via the registry only)"
# The query tier and HTTP layer must resolve kernels through
# internal/registry descriptors; importing internal/algos directly
# would reopen the dispatch-by-name drift the registry closed.
if grep -rln --include='*.go' '"gorder/internal/algos"' \
    internal/query internal/server cmd 2>/dev/null; then
    echo "FAIL: internal/algos imported outside the registry layer" >&2
    exit 1
fi

echo "==> map-free unit-heap gate (dense class indices only)"
# The unit heap's per-key-class head/tail indices are plain slices; a
# map reintroduces hashing on the greedy's hottest path.
if grep -n 'map\[' internal/core/unitheap.go; then
    echo "FAIL: map-backed structure in internal/core/unitheap.go" >&2
    exit 1
fi

echo "==> admission policy gate (rate limits and Retry-After live in fair + traffic.go)"
# Token buckets, Retry-After arithmetic, and shed forecasts are
# admission policy. Route handlers call the admit/shed helpers; one
# open-coding the policy inline fragments the SLO story across files.
if grep -rn --include='*.go' --exclude='*_test.go' \
    -e 'fair\.NewLimiter' -e '\.Allow(' -e 'Retry-After' \
    cmd internal examples ./*.go 2>/dev/null \
    | grep -v '^internal/fair/' | grep -v '^internal/server/traffic\.go'; then
    echo "FAIL: admission policy outside internal/fair + internal/server/traffic.go" >&2
    exit 1
fi

echo "==> single server mode gate (the store is required, never optional)"
# gorderd always runs over a store (a temp dir without -data-dir), so a
# nil store is a construction bug, not a mode. Only the required-field
# guards in server.New and query.New may compare a store with nil.
if grep -rnE --include='*.go' --exclude='*_test.go' \
    '(^|[^A-Za-z0-9_])(store|Store|st) *(==|!=) *nil' \
    internal/server internal/query cmd/gorderd 2>/dev/null \
    | grep -vE '^internal/(server/server|query/query)\.go:[0-9]+:	if cfg\.Store == nil \{$'; then
    echo "FAIL: store-nil branch outside the constructor guards" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> benchmark module vet + short tests (compiles against internal/query and internal/store)"
(cd benchmark && go vet . && go test -short .)

echo "==> go test -race ./..."
go test -race ./...

echo "==> greedy parity under race (optimized loop == seed reference, bit for bit)"
go test -race -run 'TestOrderOptimizedMatchesReference' -count=1 ./internal/core/

echo "==> parallel kernel parity under race (exec == serial oracles, bit for bit, workers 1/2/4/8)"
go test -race -count=1 ./internal/exec/

echo "==> parallel ordering smoke under race (boba + gorder-partitioned, workers=4, mid-size web graph)"
go test -race -count=1 -run 'TestParallelSmokeMidSize' ./internal/core/

echo "==> GOMAXPROCS=1 go test (serial ingest fallback + registry parity)"
GOMAXPROCS=1 go test ./internal/graph/ ./internal/cli/ ./internal/server/ ./internal/registry/
GOMAXPROCS=1 go test -run 'TestParity' .

echo "==> GOMAXPROCS=1 kernel-engine pass (worker counts above core count stay bit-identical)"
GOMAXPROCS=1 go test -count=1 ./internal/exec/

echo "==> GOMAXPROCS=1 parallel determinism pass (worker- and GOMAXPROCS-independent permutations)"
GOMAXPROCS=1 go test -count=1 \
    -run 'TestParallelOrderingsDeterministic|TestPartitionedWorkerIndependent|TestPartitionedGOMAXPROCSIndependent' \
    ./internal/order/ ./internal/core/

echo "==> store cold/warm smoke (artifact persisted, then served across reopen)"
go test -race ./internal/store/ -run 'TestStoreColdWarm' -count=1

echo "==> evolving-graph smoke under race (upload, edit batches with deletes, decay repair, query parity on @latest,"
echo "    tip-only residency, relabeled graph carried across edits, one relabel per concurrent miss)"
go test -race -count=1 \
    -run 'TestMutationEndToEnd|TestMutationAutoRepair|TestLineageSurvivesDaemonRestart|TestEditStreamCarriesRelabeling|TestEditVersionIDMatchesUpload|TestCachedRelabelingSkipsGraphReload|TestResidency|TestAppendGraph|TestLineageCorruptTipHealsToPrevious|TestCarryOrdering|TestConcurrentMissesRelabelOnce' \
    ./internal/server/ ./internal/store/ ./internal/query/

echo "==> examples smoke (evolvinggraph runs the extend/monitor/repair loop end-to-end)"
go build ./examples/...
go run ./examples/evolvinggraph >/dev/null

echo "==> query cold/warm smoke (cold computes, warm repeat hits the result cache)"
go test -race ./internal/query/ -run 'TestQueryColdWarm' -count=1

echo "==> ingest benchmark smoke + regression diff (-benchtime=1x, gated by benchdiff)"
# Single-iteration timings are noisy, so benchdiff's time gate is loose
# (8x) and exists for pathological regressions only; the allocs/op gate
# is tight because allocation counts are machine-independent.
go test ./internal/graph/ -run='^$' -bench=. -benchtime=1x -benchmem \
    | go run ./cmd/benchdiff -baseline BENCH_ingest.json -min-match 4

echo "==> ordering benchmark smoke + regression diff (-benchtime=1x, gated by benchdiff)"
go test ./internal/core/ -run='^$' -bench='BenchmarkOrderWith/web120k' -benchtime=1x -benchmem \
    | go run ./cmd/benchdiff -baseline BENCH_gorder.json -min-match 4

echo "==> serving smoke (gorderbench mixed traffic at a store-backed daemon, zero errors)"
# Two seconds of closed-loop upload/order/query/edit traffic from two
# tenants against a freshly started gorderd. 429s count as shedding,
# not errors; any 5xx or transport failure fails the gate, and the
# query p99 gets a deliberately loose ceiling to catch pathological
# serialization without flaking on slow CI hosts.
SMOKEDIR=$(mktemp -d)
GD=''
trap 'if [ -n "$GD" ]; then kill "$GD" 2>/dev/null || true; fi; rm -rf "$SMOKEDIR"' EXIT
go build -o "$SMOKEDIR/gorderd" ./cmd/gorderd
go build -o "$SMOKEDIR/gorderbench" ./cmd/gorderbench
"$SMOKEDIR/gorderd" -addr 127.0.0.1:0 -workers 2 -manifest '' \
    -data-dir "$SMOKEDIR/data" >"$SMOKEDIR/gorderd.log" 2>&1 &
GD=$!
ADDR=''
i=0
while [ $i -lt 50 ]; do
    ADDR=$(awk '/listening on/ {print $NF}' "$SMOKEDIR/gorderd.log")
    [ -n "$ADDR" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$ADDR" ]; then
    echo "FAIL: gorderd did not report a listen address" >&2
    cat "$SMOKEDIR/gorderd.log" >&2
    exit 1
fi
"$SMOKEDIR/gorderbench" -url "http://$ADDR" -duration 2s -concurrency 4 \
    -nodes 500 -tenants ci-a,ci-b -assert-zero-errors -assert-p99-ms 2000 \
    -json "$SMOKEDIR/bench.json" >/dev/null
kill "$GD"
wait "$GD" 2>/dev/null || true
GD=''

echo "CI OK"
