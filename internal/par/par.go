// Package par is the one parallel runtime of the repo: the chunk grid,
// the range split, the worker-count rule and the fan-out loop that the
// parallel orderings (internal/order), the kernel engine
// (internal/exec), partitioned Gorder (internal/core) and ingest
// (internal/graph) all run on.
//
// The grid depends only on the input size, never on the worker count,
// so chunk boundaries — and any order-sensitive intermediate state a
// caller keeps per chunk — are machine-independent. Callers run over
// relabeled graphs, where a contiguous ID range is a window of the
// current ordering, so each chunk is one cache-friendly block.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// maxChunks is the fixed upper bound on the chunk grid: a constant (not
// a function of the worker count) so results are machine-independent.
// 256 chunks keep every core busy far past the core counts targeted
// while amortizing the per-chunk claim overhead.
const maxChunks = 256

// Chunks returns the chunk count for an input of total items: the
// fixed grid of maxChunks, shrunk so no chunk is empty, and at least 1.
func Chunks(total int) int {
	return max(1, min(total, maxChunks))
}

// Range returns the half-open [lo, hi) range of chunk c in an even
// split of total items over chunks chunks. The products are taken in
// int64 so they cannot overflow a 32-bit int.
func Range(total, chunks, c int) (lo, hi int) {
	t, k := int64(total), int64(chunks)
	return int(t * int64(c) / k), int(t * int64(c+1) / k)
}

// Workers maps a workers knob to a goroutine count: w <= 0 selects
// GOMAXPROCS.
func Workers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// ForChunks runs fn(c, w) for every chunk c in [0, chunks) on
// min(Workers(workers), chunks) workers and returns once all have
// stopped. w is the index of the worker that claimed the chunk, in
// [0, min(Workers(workers), chunks)), so callers can keep per-worker
// scratch; fn must only write state owned by its chunk or its worker.
// Chunks are claimed from a shared counter, so a straggler chunk never
// idles the other workers. Worker 0 runs on the calling goroutine, and
// a single worker starts no goroutine at all. ctx is checked before
// every chunk: once it is done the remaining chunks are skipped, and
// ForChunks returns ctx.Err().
func ForChunks(ctx context.Context, workers, chunks int, fn func(c, w int)) error {
	workers = min(Workers(workers), chunks)
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(c, 0)
		}
		return ctx.Err()
	}
	// The claim counter and the WaitGroup share one allocation; the
	// ingest benchmarks gate allocations per load.
	var s struct {
		next atomic.Int64
		wg   sync.WaitGroup
	}
	s.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer s.wg.Done()
			claim(ctx, &s.next, chunks, w, fn)
		}()
	}
	claim(ctx, &s.next, chunks, 0, fn)
	s.wg.Wait()
	return ctx.Err()
}

// claim runs fn(c, w) on chunks claimed from next until the grid is
// exhausted or ctx is done.
func claim(ctx context.Context, next *atomic.Int64, chunks, w int, fn func(c, w int)) {
	for ctx.Err() == nil {
		c := int(next.Add(1)) - 1
		if c >= chunks {
			return
		}
		fn(c, w)
	}
}
