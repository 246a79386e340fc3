package order

import (
	"context"
	"sort"
	"sync/atomic"

	"gorder/internal/graph"
	"gorder/internal/par"
)

// Lightweight *parallel* reordering machinery. Every ordering in this
// file follows the same contract:
//
//   - workers sets the number of goroutines (<= 0 selects GOMAXPROCS)
//     and NEVER affects the result: work is divided over internal/par's
//     fixed chunk grid, whose geometry depends only on the input size;
//     per-chunk results land in per-chunk slots, and cross-chunk
//     combination is either commutative (atomic min) or an exact
//     prefix sum — so the permutation is bit-identical at any worker
//     count and GOMAXPROCS.
//   - ctx is checked between chunks; the first cancellation aborts the
//     computation with ctx.Err() and a nil permutation.
//
// This determinism is what lets the artifact cache treat the worker
// count as an execution detail rather than part of the cache key, and
// it is pinned by TestParallelOrderingsDeterministic.

// BOBA computes the sort-free parallel ordering of arXiv 2306.10410
// with default parallelism; see BOBACtx.
func BOBA(g *graph.Graph) Permutation {
	p, _ := BOBACtx(context.Background(), g, 0)
	return p
}

// BOBACtx computes the BOBA ordering (Boosting Block-based Adjacency,
// arXiv 2306.10410): vertices are placed in order of their *first
// appearance as a destination* in the CSR edge stream. High in-degree
// vertices appear early and often in that stream, so the prefix of
// the new ID space concentrates the hot vertices much like a degree
// sort — but the whole computation is two O(m) passes with no sort:
//
//	pass 1  first[v] = min stream position where v appears (atomic min)
//	pass 2  each chunk emits the vertices whose first appearance falls
//	        inside it, in stream order; chunk outputs concatenate in
//	        chunk order
//
// Vertices that never appear as a destination (in-degree 0) follow in
// original order, preserving whatever locality they had. Both passes
// parallelise over the fixed chunk grid, so the result is identical
// at any worker count.
func BOBACtx(ctx context.Context, g *graph.Graph, workers int) (Permutation, error) {
	n := g.NumNodes()
	if n == 0 {
		return Permutation{}, ctx.Err()
	}
	adj := g.OutAdjacency()
	m := len(adj)
	sentinel := int64(m)
	first := make([]int64, n)
	for i := range first {
		first[i] = sentinel
	}
	chunks := par.Chunks(m)
	if m > 0 {
		err := par.ForChunks(ctx, workers, chunks, func(c, _ int) {
			lo, hi := par.Range(m, chunks, c)
			for i := lo; i < hi; i++ {
				v := adj[i]
				pos := int64(i)
				for {
					cur := atomic.LoadInt64(&first[v])
					if cur <= pos || atomic.CompareAndSwapInt64(&first[v], cur, pos) {
						break
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	locals := make([][]graph.NodeID, chunks)
	if m > 0 {
		err := par.ForChunks(ctx, workers, chunks, func(c, _ int) {
			lo, hi := par.Range(m, chunks, c)
			var buf []graph.NodeID
			for i := lo; i < hi; i++ {
				if v := adj[i]; first[v] == int64(i) {
					buf = append(buf, v)
				}
			}
			locals[c] = buf
		})
		if err != nil {
			return nil, err
		}
	}
	seq := make([]graph.NodeID, 0, n)
	for _, buf := range locals {
		seq = append(seq, buf...)
	}
	for v := 0; v < n; v++ {
		if first[v] == sentinel {
			seq = append(seq, graph.NodeID(v))
		}
	}
	return FromSequence(seq), nil
}

// splitHotCold partitions the vertices into hot (in-degree strictly
// above the average) and cold, each in ascending ID order, using a
// count/prefix-sum/fill pass over the fixed chunk grid. This is the
// shared "parallel bucket fill" under HubSort, HubCluster and DBG.
func splitHotCold(ctx context.Context, g *graph.Graph, workers int) (hot, cold []graph.NodeID, err error) {
	n := g.NumNodes()
	avg := float64(g.NumEdges()) / float64(n)
	inIdx := g.InIndex()
	chunks := par.Chunks(n)
	hotCount := make([]int, chunks)
	if err := par.ForChunks(ctx, workers, chunks, func(c, _ int) {
		lo, hi := par.Range(n, chunks, c)
		cnt := 0
		for v := lo; v < hi; v++ {
			if float64(inIdx[v+1]-inIdx[v]) > avg {
				cnt++
			}
		}
		hotCount[c] = cnt
	}); err != nil {
		return nil, nil, err
	}
	totalHot := 0
	for _, c := range hotCount {
		totalHot += c
	}
	hot = make([]graph.NodeID, totalHot)
	cold = make([]graph.NodeID, n-totalHot)
	// Exclusive prefix sums give each chunk its write offsets in both
	// output arrays; the fill pass then writes without contention.
	hotOff := make([]int, chunks)
	coldOff := make([]int, chunks)
	h, cd := 0, 0
	for c := 0; c < chunks; c++ {
		hotOff[c], coldOff[c] = h, cd
		lo, hi := par.Range(n, chunks, c)
		h += hotCount[c]
		cd += (hi - lo) - hotCount[c]
	}
	if err := par.ForChunks(ctx, workers, chunks, func(c, _ int) {
		lo, hi := par.Range(n, chunks, c)
		ho, co := hotOff[c], coldOff[c]
		for v := lo; v < hi; v++ {
			if float64(inIdx[v+1]-inIdx[v]) > avg {
				hot[ho] = graph.NodeID(v)
				ho++
			} else {
				cold[co] = graph.NodeID(v)
				co++
			}
		}
	}); err != nil {
		return nil, nil, err
	}
	return hot, cold, nil
}

// HubSortCtx is HubSort with explicit parallelism and cancellation:
// the hot/cold split runs as a parallel bucket fill, then the hot
// block is sorted by descending in-degree (ties by ascending ID, so
// the result matches the serial implementation bit for bit).
func HubSortCtx(ctx context.Context, g *graph.Graph, workers int) (Permutation, error) {
	n := g.NumNodes()
	if n == 0 {
		return Permutation{}, ctx.Err()
	}
	hot, cold, err := splitHotCold(ctx, g, workers)
	if err != nil {
		return nil, err
	}
	sort.Slice(hot, func(a, b int) bool {
		da, db := g.InDegree(hot[a]), g.InDegree(hot[b])
		if da != db {
			return da > db
		}
		return hot[a] < hot[b]
	})
	return FromSequence(append(hot, cold...)), nil
}

// HubClusterCtx computes HubCluster (Faldu et al., arXiv 2001.08448):
// the hot vertices move to the front *in their original relative
// order* — no sort at all — and the cold vertices follow, also in
// original order. It packs the hot working set like HubSort while
// preserving intra-hot locality, and costs only the two parallel
// bucket-fill passes.
func HubClusterCtx(ctx context.Context, g *graph.Graph, workers int) (Permutation, error) {
	n := g.NumNodes()
	if n == 0 {
		return Permutation{}, ctx.Err()
	}
	hot, cold, err := splitHotCold(ctx, g, workers)
	if err != nil {
		return nil, err
	}
	return FromSequence(append(hot, cold...)), nil
}

// dbgClassCount is the number of DBG degree classes: seven geometric
// thresholds around the average degree plus the tail class.
const dbgClassCount = 8

// dbgClass maps an in-degree to its DBG class under the paper's
// geometric thresholds (class 0 hottest).
func dbgClass(d, avg float64) int {
	switch {
	case d > 32*avg:
		return 0
	case d > 16*avg:
		return 1
	case d > 8*avg:
		return 2
	case d > 4*avg:
		return 3
	case d > 2*avg:
		return 4
	case d > avg:
		return 5
	case d > avg/2:
		return 6
	default:
		return 7
	}
}

// DBGCtx is Degree-Based Grouping with explicit parallelism and
// cancellation. Classification is embarrassingly parallel; the bucket
// fill runs as a count pass per (chunk, class), an exact prefix sum,
// and a contention-free write pass — identical output to the serial
// DBG at any worker count.
func DBGCtx(ctx context.Context, g *graph.Graph, workers int) (Permutation, error) {
	n := g.NumNodes()
	if n == 0 {
		return Permutation{}, ctx.Err()
	}
	avg := float64(g.NumEdges()) / float64(n)
	if avg < 1 {
		avg = 1
	}
	inIdx := g.InIndex()
	chunks := par.Chunks(n)
	counts := make([][dbgClassCount]int, chunks)
	if err := par.ForChunks(ctx, workers, chunks, func(c, _ int) {
		lo, hi := par.Range(n, chunks, c)
		var cnt [dbgClassCount]int
		for v := lo; v < hi; v++ {
			cnt[dbgClass(float64(inIdx[v+1]-inIdx[v]), avg)]++
		}
		counts[c] = cnt
	}); err != nil {
		return nil, err
	}
	// offsets[c][k] = write position of chunk c's first class-k vertex:
	// classes are laid out hottest-first, chunks in chunk (= ID) order
	// inside each class — exactly the serial append order.
	offsets := make([][dbgClassCount]int, chunks)
	pos := 0
	for k := 0; k < dbgClassCount; k++ {
		for c := 0; c < chunks; c++ {
			offsets[c][k] = pos
			pos += counts[c][k]
		}
	}
	seq := make([]graph.NodeID, n)
	if err := par.ForChunks(ctx, workers, chunks, func(c, _ int) {
		lo, hi := par.Range(n, chunks, c)
		off := offsets[c]
		for v := lo; v < hi; v++ {
			k := dbgClass(float64(inIdx[v+1]-inIdx[v]), avg)
			seq[off[k]] = graph.NodeID(v)
			off[k]++
		}
	}); err != nil {
		return nil, err
	}
	return FromSequence(seq), nil
}
