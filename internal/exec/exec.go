// Package exec is the parallel kernel execution engine: it runs the
// hot benchmark kernels over multiple cores by partitioning the vertex
// space into contiguous chunks of the *current ordering*. Kernels
// execute over relabeled graphs, so vertex IDs are ordering positions
// and a contiguous ID range is a Gorder-localized window — each
// worker's working set is exactly the cache-friendly block the
// ordering built, which is how frontier parallelism compounds with
// locality instead of destroying it (PriorityGraph/GraphIt, arXiv
// 1911.07260; Faldu et al., arXiv 2001.08448).
//
// Every kernel in this package runs on internal/par's chunk grid and
// fan-out and follows the contract the parallel orderings in
// internal/order established:
//
//   - workers sets the goroutine count (<= 0 selects GOMAXPROCS) and
//     never changes the result: PageRank fixes the summation order per
//     vertex and folds cross-range reductions serially in range order,
//     traversals write integer distances whose fixed point is
//     schedule-independent, and triangle counts are exact integer
//     sums. BFS/SP/Tri outputs are bit-identical to the serial
//     oracles in internal/algos at any worker count and GOMAXPROCS;
//     PageRank matches the serial kernel bitwise because the dangling
//     fold is kept serial.
//   - ctx is checked between chunks and between iterations/levels;
//     the first cancellation aborts with ctx.Err() and a nil result.
package exec

import "gorder/internal/graph"

// Scratch holds the reusable buffers the kernels borrow between
// calls: the frontier pair, relaxation request lists, and PageRank's
// contribution and reciprocal-degree arrays. The zero value is ready;
// not safe for concurrent use. Output vectors are never drawn from the
// scratch — results handed to callers (and cached by the query tier)
// are always freshly allocated.
type Scratch struct {
	frontier []graph.NodeID // current frontier (double-buffered
	next     []graph.NodeID // with next)
	contrib  []float64      // PageRank rank/outdeg per vertex
	invDeg   []float64      // PageRank reciprocal out-degrees
	relax    []relaxList    // per-chunk bucket-insertion requests
}

// floats returns the two float64 work arrays sized for n vertices.
func (s *Scratch) floats(n int) (contrib, invDeg []float64) {
	if cap(s.contrib) < n {
		s.contrib = make([]float64, n)
	}
	if cap(s.invDeg) < n {
		s.invDeg = make([]float64, n)
	}
	return s.contrib[:n], s.invDeg[:n]
}

// frontiers returns the two frontier buffers with length n, grown when
// their capacity falls short.
func (s *Scratch) frontiers(n int) (cur, next []graph.NodeID) {
	if cap(s.frontier) < n {
		s.frontier = make([]graph.NodeID, n)
	}
	if cap(s.next) < n {
		s.next = make([]graph.NodeID, n)
	}
	return s.frontier[:n], s.next[:n]
}
