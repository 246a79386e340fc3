package exec

import (
	"context"

	"gorder/internal/graph"
	"gorder/internal/par"
)

// PageRank runs the pull-mode power iteration over `workers`
// goroutines with per-worker range ownership: the vertex space is cut
// into contiguous chunks of the current ordering, each chunk's `next`
// entries are written only by the worker that claimed it, and every
// per-vertex in-neighbour sum runs in CSR order — so there are no
// atomics on `next` and the per-vertex summation order is fixed. The
// dangling-mass fold (the only cross-range reduction) is kept serial
// over the precomputed dangling-vertex list, which makes the result
// bit-identical to algos.PageRank at any worker count and GOMAXPROCS.
//
// ctx is checked between chunks and between iterations; cancellation
// returns ctx.Err() mid-computation with a nil slice.
func PageRank(ctx context.Context, g *graph.Graph, iters int, damping float64, workers int, sc *Scratch) ([]float64, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, ctx.Err()
	}
	if sc == nil {
		sc = new(Scratch)
	}
	// rank and next are fresh allocations: the final array is handed to
	// the caller (and may be cached), so neither can come from scratch.
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	contrib, invDeg := sc.floats(n)

	// Reciprocal out-degrees and the dangling list are loop-invariant:
	// one division per vertex for the whole run, mirroring the serial
	// kernel (the parity tests compare bitwise).
	var dangling []graph.NodeID
	outIdx := g.OutIndex()
	for u := 0; u < n; u++ {
		if d := outIdx[u+1] - outIdx[u]; d > 0 {
			invDeg[u] = 1 / float64(d)
		} else {
			invDeg[u] = 0
			dangling = append(dangling, graph.NodeID(u))
		}
	}

	inIdx := g.InIndex()
	inAdj := g.InAdjacency()
	chunks := par.Chunks(n)
	for it := 0; it < iters; it++ {
		if err := par.ForChunks(ctx, workers, chunks, func(c, _ int) {
			lo, hi := par.Range(n, chunks, c)
			for u := lo; u < hi; u++ {
				contrib[u] = rank[u] * invDeg[u]
			}
		}); err != nil {
			return nil, err
		}
		// Serial fold in ascending-ID order: identical association to
		// the serial kernel, so the base term matches bit for bit.
		danglingMass := 0.0
		for _, u := range dangling {
			danglingMass += rank[u]
		}
		base := (1-damping)/float64(n) + damping*danglingMass/float64(n)
		if err := par.ForChunks(ctx, workers, chunks, func(c, _ int) {
			lo, hi := par.Range(n, chunks, c)
			for v := lo; v < hi; v++ {
				sum := 0.0
				for _, u := range inAdj[inIdx[v]:inIdx[v+1]] {
					sum += contrib[u]
				}
				next[v] = base + damping*sum
			}
		}); err != nil {
			return nil, err
		}
		rank, next = next, rank
	}
	return rank, nil
}
