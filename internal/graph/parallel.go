package graph

import "gorder/internal/par"

// Ingestion — edge-list parsing, CSR construction, the binary loader,
// and Undirected — fans out across GOMAXPROCS workers by default. Each
// pass calls par.ForChunks with one contiguous chunk per worker
// (chunks == workers): the CSR builder's passes scan every shard once
// per chunk, so a finer grid would multiply their O(workers·m) scan
// cost. The passes run under context.Background, so ForChunks cannot
// fail. There is one implementation of each pass, and its output does
// not depend on the worker count: the same CSR arrays and the same
// sorted neighbour lists at one worker or many. Small inputs run on
// one worker, where goroutine fan-out costs more than it saves.

const (
	// serialEdgeCutoff is the edge count below which CSR construction
	// runs on one worker when the parallelism is automatic.
	serialEdgeCutoff = 1 << 14
	// serialByteCutoff is the input size below which edge-list parsing
	// runs on one worker when the parallelism is automatic.
	serialByteCutoff = 1 << 16
)

// forcedWorkers, when positive, pins the ingest worker count and
// bypasses the small-input cutoffs above. Only this package's tests and
// benchmarks set it, to reach k workers on small inputs on any machine.
var forcedWorkers int

// csrWorkers picks the worker count for a CSR-construction pass over m
// edges.
func csrWorkers(m int64) int {
	return ingestWorkers(m, serialEdgeCutoff)
}

// parseWorkers picks the worker count for parsing size bytes of
// edge-list text.
func parseWorkers(size int) int {
	return ingestWorkers(int64(size), serialByteCutoff)
}

// ingestWorkers is forcedWorkers if set, else 1 for an input smaller
// than cutoff, else par.Workers(0) — GOMAXPROCS.
func ingestWorkers(size, cutoff int64) int {
	if forcedWorkers > 0 {
		return forcedWorkers
	}
	if size < cutoff {
		return 1
	}
	return par.Workers(0)
}
