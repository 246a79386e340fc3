package exec

import (
	"context"

	"gorder/internal/graph"
	"gorder/internal/par"
)

// TriangleCount counts the triangles of the undirected view of g with
// the same compact-forward algorithm as the serial algos.TriangleCount,
// parallelised in its two heavy phases: the forward-list build (a
// count/prefix-sum/fill two-pass into one flat CSR-like array, each
// vertex's slot written exclusively by its chunk's owner) and the
// intersection sweep (per-chunk int64 partial counts). The degree-rank
// counting sort stays serial — it is O(n) and fixes the global rank
// order every chunk reads. Triangle counts are exact integer sums, so
// the result is bit-identical to the serial oracle at any worker count.
func TriangleCount(ctx context.Context, g *graph.Graph, workers int, sc *Scratch) (int64, error) {
	u := g.Undirected()
	n := u.NumNodes()
	if n == 0 {
		return 0, ctx.Err()
	}
	if sc == nil {
		sc = new(Scratch)
	}

	// Rank by degree ascending (stable counting sort), identical to the
	// serial kernel: high-degree vertices come last so intersections run
	// over the two smaller forward lists.
	order := make([]graph.NodeID, n)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	maxd := 0
	for _, v := range order {
		if d := u.OutDegree(v); d > maxd {
			maxd = d
		}
	}
	buckets := make([][]graph.NodeID, maxd+1)
	for _, v := range order {
		buckets[u.OutDegree(v)] = append(buckets[u.OutDegree(v)], v)
	}
	rank := make([]int32, n)
	pos := 0
	for _, b := range buckets {
		for _, v := range b {
			order[pos] = v
			rank[v] = int32(pos)
			pos++
		}
	}

	chunks := par.Chunks(n)

	// Pass 1: count each vertex's higher-rank neighbours.
	fwdIdx := make([]int64, n+1)
	if err := par.ForChunks(ctx, workers, chunks, func(c, _ int) {
		lo, hi := par.Range(n, chunks, c)
		for v := lo; v < hi; v++ {
			cnt := int64(0)
			for _, w := range u.OutNeighbors(graph.NodeID(v)) {
				if rank[w] > rank[v] {
					cnt++
				}
			}
			fwdIdx[v+1] = cnt
		}
	}); err != nil {
		return 0, err
	}
	// Serial prefix sum turns counts into offsets.
	for v := 0; v < n; v++ {
		fwdIdx[v+1] += fwdIdx[v]
	}

	// Pass 2: fill each vertex's slot (exclusively owned by its chunk)
	// and sort it by rank, matching the serial forward lists.
	fwdAdj := make([]graph.NodeID, fwdIdx[n])
	if err := par.ForChunks(ctx, workers, chunks, func(c, _ int) {
		lo, hi := par.Range(n, chunks, c)
		for v := lo; v < hi; v++ {
			at := fwdIdx[v]
			for _, w := range u.OutNeighbors(graph.NodeID(v)) {
				if rank[w] > rank[v] {
					fwdAdj[at] = w
					at++
				}
			}
			sortNodesByRank(rank, fwdAdj[fwdIdx[v]:at])
		}
	}); err != nil {
		return 0, err
	}

	// Count: per-chunk partial sums, exact integer reduce in chunk order.
	partial := make([]int64, chunks)
	if err := par.ForChunks(ctx, workers, chunks, func(c, _ int) {
		lo, hi := par.Range(n, chunks, c)
		var t int64
		for v := lo; v < hi; v++ {
			fv := fwdAdj[fwdIdx[v]:fwdIdx[v+1]]
			for _, w := range fv {
				t += intersectNodesByRank(rank, fv, fwdAdj[fwdIdx[w]:fwdIdx[w+1]])
			}
		}
		partial[c] = t
	}); err != nil {
		return 0, err
	}
	var triangles int64
	for _, t := range partial {
		triangles += t
	}
	return triangles, nil
}

func sortNodesByRank(rank []int32, list []graph.NodeID) {
	// Insertion sort: forward lists are short on sparse graphs.
	for i := 1; i < len(list); i++ {
		v := list[i]
		j := i - 1
		for j >= 0 && rank[list[j]] > rank[v] {
			list[j+1] = list[j]
			j--
		}
		list[j+1] = v
	}
}

func intersectNodesByRank(rank []int32, a, b []graph.NodeID) int64 {
	var count int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ra, rb := rank[a[i]], rank[b[j]]
		switch {
		case ra < rb:
			i++
		case ra > rb:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}
