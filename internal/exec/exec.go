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
// Every kernel in this package follows the contract the parallel
// orderings in internal/order established:
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

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"gorder/internal/graph"
)

// gridChunkTarget is the fixed upper bound on the chunk grid, shared
// with internal/order's parallel family: a constant (not a function of
// the worker count) so chunk boundaries — and therefore any
// order-sensitive intermediate state — are machine-independent. 256
// chunks keep every core busy far past the core counts we target while
// amortizing the per-chunk claim overhead.
const gridChunkTarget = 256

// ChunksFor returns the chunk count for an input of the given size:
// gridChunkTarget, shrunk so no chunk is empty, and at least 1.
func ChunksFor(total int) int {
	chunks := gridChunkTarget
	if total < chunks {
		chunks = total
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// ChunkRange returns the half-open [lo, hi) range of chunk c in an
// even split of total items over the grid — one contiguous window of
// the current ordering.
func ChunkRange(total, chunks, c int) (lo, hi int) {
	return c * total / chunks, (c + 1) * total / chunks
}

// resolveWorkers maps the public workers knob to a goroutine count.
func resolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// forChunks runs fn(c) for every chunk index in [0, chunks) on up to
// `workers` goroutines. Chunks are claimed from a shared counter, so
// scheduling is dynamic (a straggler chunk never idles the other
// workers) but fn must only write state owned by its chunk. ctx is
// polled before each claimed chunk; once it is done the remaining
// chunks are skipped and ctx.Err() is returned.
func forChunks(ctx context.Context, workers, chunks int, fn func(c int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	workers = resolveWorkers(workers)
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(c)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks || ctx.Err() != nil {
					return
				}
				fn(c)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

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
