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

echo "==> one serving kernel path gate (BFS/SP/PR/Tri queries run internal/exec at every worker count)"
# Workers = 1 is the engine's serial case, so the query entry points
# never fall back to the internal/algos bodies (those stay the parity
# oracles and the traced-kernel mirrors) and nothing in the registry or
# the query tier branches on the worker count.
if grep -nE 'algos\.(BFSFrom|BellmanFord|PageRank|TriangleCount)\(' internal/registry/query.go; then
    echo "FAIL: internal/registry/query.go serves a kernel from internal/algos" >&2
    exit 1
fi
if grep -rn --include='*.go' --exclude='*_test.go' 'Workers > 1' \
    internal/registry internal/query; then
    echo "FAIL: worker-count branch in the registry or the query tier" >&2
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

echo "==> one graph catalog gate (graph refs resolve only through internal/store)"
# The store's lineages are the only name -> digest catalog. A mirrored
# GraphInfo map, a second ref parser, or a name alias outside a lineage
# lets the copies disagree about which version a ref names.
if grep -rnE --include='*.go' --exclude='*_test.go' \
    -e 'map\[string\]GraphInfo' -e 'func parseRef\(' -e 'SetName\(' \
    internal/server cmd 2>/dev/null; then
    echo "FAIL: graph catalog state outside internal/store" >&2
    exit 1
fi

echo "==> one lineage writer gate (every tip move and quality write goes through writeLineage, locked per lineage)"
# Edits, uploads, repairs and order-job baselines each once kept their
# own bookkeeping and drifted apart. A second AppendVersion or
# SetQuality call site, or a server-wide mutation lock, reopens that.
for call in '\.AppendVersion\(' '\.SetQuality\('; do
    n=$(grep -rnE --include='*.go' --exclude='*_test.go' "$call" internal/server | wc -l)
    if [ "$n" -ne 1 ]; then
        grep -rnE --include='*.go' --exclude='*_test.go' "$call" internal/server || true
        echo "FAIL: $n call sites of $call in internal/server, want exactly 1" >&2
        exit 1
    fi
done
if grep -rn --include='*.go' --exclude='*_test.go' 'mutMu' internal/server; then
    echo "FAIL: server-wide mutation lock in internal/server" >&2
    exit 1
fi

echo "==> one CSR builder gate (every graph build ends in fromCSR; one worker is the serial path)"
# build counting-sorts the edges into the out-CSR once and fromCSR
# derives the in-CSR, as for the binary loader and ApplyEdits. A serial
# twin of the builder or the parser, a builder that fills the in-CSR by
# flipping edges, or a text reader that buffers the whole input would
# each need its own parity test to stay identical to the one path.
if grep -rnE --include='*.go' --exclude='*_test.go' \
    -e 'buildCSRSerial' -e 'readEdgeListSerial' -e 'reverse(, *[A-Za-z_]+)* bool' \
    -e 'func ReadEdgeList\(' \
    internal/graph 2>/dev/null; then
    echo "FAIL: a second CSR builder or edge-list reader in internal/graph" >&2
    exit 1
fi

echo "==> one bench schema gate (scripts/bench.sh records BENCH_ingest, BENCH_gorder and BENCH_serve only)"
# Every committed benchmark is a row file written by the tools and
# regenerated by scripts/bench.sh. A per-suite script, a cmd/bench JSON
# report flag, or another BENCH_*.json brings back a second shape.
stray=$(ls scripts/bench_*.sh BENCH_*.json 2>/dev/null | grep -vxE 'BENCH_(ingest|gorder|serve)\.json' || true)
if [ -n "$stray" ]; then
    echo "$stray"
    echo "FAIL: bench suite outside scripts/bench.sh's ingest/gorder/serve rows" >&2
    exit 1
fi
if grep -nE 'flag\.[A-Za-z0-9]+\("[A-Za-z0-9-]+-json"' cmd/bench/*.go; then
    echo "FAIL: JSON report flag in cmd/bench (record rows through scripts/bench.sh)" >&2
    exit 1
fi

echo "==> one parallel runtime gate (chunk grid, worker rule and fan-out live in internal/par)"
# The grid size, the range split, the worker-count rule and the
# goroutine fan-out are one policy shared by the orderings, the kernel
# engine, partitioned Gorder and ingest. A private copy in any of them
# can drift from the rest and make a result depend on the worker count.
if grep -rn --include='*.go' --exclude='*_test.go' \
    -e 'gridChunkTarget' -e 'func forChunks' -e 'func resolveWorkers' \
    -e 'func runParallel' -e 'sync\.WaitGroup' \
    internal/order internal/exec internal/core internal/graph 2>/dev/null; then
    echo "FAIL: parallel runtime outside internal/par" >&2
    exit 1
fi

echo "==> one Gorder greedy gate (exact and incremental orderings share the batched unit-heap loop)"
# Every Gorder ordering runs orderFrom, the batched loop over the
# concrete *UnitHeap. The lazy binary heap and the per-bump loop over
# the queue interface are test-only: the reference oracle and the queue
# ablation benchmark. A second greedy in production code would have to
# be held to the first by its own parity test.
if grep -n --exclude='*_test.go' \
    -e 'UseLazyHeap' -e 'func orderGeneric' -e 'func applyQueue' \
    -e 'maxQueue' -e 'lazyHeap' \
    internal/core/*.go ./*.go 2>/dev/null; then
    echo "FAIL: a second Gorder greedy or queue in non-test code" >&2
    exit 1
fi

echo "==> nothing only tests reach gate (deleted partitioners, test-only settings, twin writers)"
# Every exported name and option field in non-test code has a non-test
# caller. These were reachable only from tests and were deleted or
# turned into constants; bringing one back reopens a configuration no
# caller selects.
if grep -rnw --include='*.go' --exclude='*_test.go' \
    -e 'Partitioner' -e 'BFSPartition' -e 'LDGPartition' -e 'WritePermutation' \
    -e 'qualityRec' -e 'GraphBudget' -e 'QueryWaitCap' -e 'MaxLevels' -e 'LabelPropIters' \
    -e '"gorder/internal/cli"' \
    cmd internal examples ./*.go 2>/dev/null; then
    echo "FAIL: code only tests reach is back in non-test Go" >&2
    exit 1
fi

echo "==> gofmt gate (every Go file is gofmt-clean)"
# .bench_build/ holds the benchmark's build cache, not source.
unformatted=$(gofmt -l ./*.go cmd internal examples benchmark)
if [ -n "$unformatted" ]; then
    echo "$unformatted"
    echo "FAIL: files need gofmt" >&2
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

echo "==> greedy parity under race (optimized loop == seed reference, bit for bit; incremental == per-bump oracle;"
echo "    log-overflow rescan == both oracles)"
go test -race -run 'TestOrderOptimizedMatchesReference|TestIncrementalMatchesReference|TestRescanMatchesReference' -count=1 ./internal/core/

echo "==> parallel runtime + kernel parity under race (par fan-out; exec == serial oracles, bit for bit, workers 1/2/4/8)"
go test -race -count=1 ./internal/par/ ./internal/exec/

echo "==> parallel ordering smoke under race (boba + gorder-partitioned, workers=4, mid-size web graph)"
go test -race -count=1 -run 'TestParallelSmokeMidSize' ./internal/core/

echo "==> GOMAXPROCS=1 go test (ingest at one worker + registry parity)"
GOMAXPROCS=1 go test ./internal/graph/ ./internal/server/ ./internal/registry/
GOMAXPROCS=1 go test -run 'TestParity' .

echo "==> GOMAXPROCS=1 runtime + kernel-engine pass (worker counts above core count stay bit-identical)"
GOMAXPROCS=1 go test -count=1 ./internal/par/ ./internal/exec/

echo "==> GOMAXPROCS=1 parallel determinism pass (worker- and GOMAXPROCS-independent permutations)"
GOMAXPROCS=1 go test -count=1 \
    -run 'TestParallelOrderingsDeterministic|TestPartitionedWorkerIndependent|TestPartitionedGOMAXPROCSIndependent' \
    ./internal/order/ ./internal/core/

echo "==> store cold/warm smoke (artifact persisted, then served across reopen)"
go test -race ./internal/store/ -run 'TestStoreColdWarm' -count=1

echo "==> evolving-graph smoke under race (upload, edit batches with deletes, decay repair, query parity on @latest,"
echo "    tip-only residency, relabeled graph carried across edits, one relabel per concurrent miss,"
echo "    one hub entry per lineage, every upload name a lineage, uploads racing edits stay on the chain,"
echo "    an edited relabeled tip held once with its blob patched on disk, order records indexed by digest,"
echo "    a done job's permutation read back from its artifact and refused once a repair replaced it,"
echo "    a repair superseded by an edit writes nothing, an upload drops the replaced tip's relabeling,"
echo "    four lineages written concurrently keep their records on their tips and their versions chained)"
go test -race -count=1 \
    -run 'TestJobPermutation|TestMutationEndToEnd|TestMutationAutoRepair|TestLineageSurvivesDaemonRestart|TestEditStreamCarriesRelabeling|TestEditVersionIDMatchesUpload|TestCachedRelabelingSkipsGraphReload|TestResidency|TestPatchGraph|TestLineageCorruptTipHealsToPrevious|TestCarryOrdering|TestConcurrentMissesRelabelOnce|TestHubMapOneEntryPerLineage|TestHubCacheBoundedOnUnorderedLineage|TestAliasUploadIsLineage|TestReuploadOldContentKeepsNameConsistent|TestUploadDuringEditKeepsChain|TestTipResidency|TestEditDeletesParallelEdge|TestOrderIndexMatchesScan|TestPatchBinary|TestApplyEditsDeletesParallelCopies|TestReadPermutation|TestScoreDeltaRelabeledMatchesNatural|TestRepairStraddlingEditKeepsTipRecord|TestUploadOverQueriedTipDropsRelabeling|TestConcurrentLineageWrites' \
    ./internal/server/ ./internal/store/ ./internal/query/ ./internal/graph/ ./internal/order/

echo "==> examples smoke (evolvinggraph runs the extend/monitor/repair loop end-to-end)"
go build ./examples/...
go run ./examples/evolvinggraph >/dev/null

echo "==> query cold/warm smoke under race (cold computes, warm repeat hits the result cache;"
echo "    results and relabelings are cached on their second use, a tip queried once holds nothing;"
echo "    a query-built relabeling replaces the natural tip in memory, also while edits race it;"
echo "    cached hop distances and core numbers are packed at the narrowest width within the budget,"
echo "    encode as their int32 form at every width, and answer top-K as a full sort would;"
echo "    finished jobs hold no permutation and at most a fixed number are kept;"
echo "    a full queue answers 429 and reads answer while the pool is held;"
echo "    ingest and order jobs collect at their end, so the heap holds the stored graph, counted by stage;"
echo "    a read that lost the race to an edit runs on the natural graph instead of relabeling a dead version;"
echo "    /metrics reports the live heap, the collector's goal and cycles, and the peak resident set)"
go test -race ./internal/query/ ./internal/server/ ./internal/registry/ -run 'TestQueryColdWarm|TestAdmission|TestTipResidency|TestCompactRangeEdges|TestPackInt32sWidthEdges|TestResultCodecByteFormMatchesInt32|TestResultCodecIdentityEveryWidth|TestTopKMatchesSortOracle|TestResultCacheWithinBudget|TestByteCacheAnswersMatchOracle|TestCacheGaugesOnMetrics|TestJobPermutation|TestJobTableBounded|TestQueueDepthLimitRejects|TestReadsNotBlockedByCompute|TestStageEndCollection|TestStragglerReadSkipsRelabel|TestMemoryMetrics' -count=1

echo "==> ingest benchmark smoke + regression diff (-benchtime=1x, gated by benchdiff)"
# Single-iteration timings are noisy, so benchdiff's time gate is loose
# (8x) and exists for pathological regressions only; the allocs/op gate
# is tight because allocation counts are machine-independent.
go test ./internal/graph/ -run='^$' -bench=. -benchtime=1x -benchmem \
    | go run ./cmd/benchdiff -baseline BENCH_ingest.json -min-match 4

echo "==> ordering benchmark smoke + regression diff (-benchtime=1x, gated by benchdiff)"
# BenchmarkOrderPartitioned's F/exact is an exact count: any drop fails.
go test ./internal/core/ -run='^$' -bench='(BenchmarkOrderWith|BenchmarkOrderPartitioned)/web120k' -benchtime=1x -benchmem \
    | go run ./cmd/benchdiff -baseline BENCH_gorder.json -min-match 5

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
