package graph

import "gorder/internal/par"

// Ingestion — edge-list parsing, CSR construction, the binary loader,
// and Undirected — fans out across GOMAXPROCS workers by default. Each
// pass calls par.ForChunks with one contiguous chunk per worker
// (chunks == workers): the CSR builder's passes scan every shard once
// per chunk, so a finer grid would multiply their O(workers·m) scan
// cost. The passes run under context.Background, so ForChunks cannot
// fail. The parallel paths are bit-identical to the serial ones: same
// CSR arrays, same sorted neighbour lists, so downstream orderings and
// tests cannot tell them apart. The serial code is kept as the oracle
// and is used automatically for small inputs, where goroutine fan-out
// costs more than it saves.

const (
	// serialEdgeCutoff is the edge count below which CSR construction
	// stays on the serial path when the parallelism is automatic.
	serialEdgeCutoff = 1 << 14
	// serialByteCutoff is the input size below which edge-list parsing
	// stays on the serial path when the parallelism is automatic.
	serialByteCutoff = 1 << 16
)

// forcedWorkers, when positive, pins the ingest worker count and
// bypasses the small-input cutoffs above. Only this package's tests and
// benchmarks set it, to exercise the parallel paths (and the serial
// oracle) on any machine.
var forcedWorkers int

// ingestWorkers resolves the effective worker count: forcedWorkers if
// set (forced reports that), else par.Workers(0) — GOMAXPROCS.
func ingestWorkers() (workers int, forced bool) {
	if forcedWorkers > 0 {
		return forcedWorkers, true
	}
	return par.Workers(0), false
}

// csrWorkers picks the worker count for a CSR-construction pass over m
// edges: 1 (serial) unless the input is big enough or the count is
// forced.
func csrWorkers(m int64) int {
	workers, forced := ingestWorkers()
	if workers <= 1 || (!forced && m < serialEdgeCutoff) {
		return 1
	}
	return workers
}
