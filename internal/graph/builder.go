package graph

import (
	"context"
	"fmt"
	"slices"

	"gorder/internal/par"
)

// Edge is a directed edge used when constructing a Graph.
type Edge struct {
	From, To NodeID
}

// FromEdges builds a Graph with n vertices from the given directed
// edge list. Parallel edges are kept (the benchmark datasets may
// contain them); use FromEdgesDedup to collapse them. It panics if an
// endpoint is out of range or n is negative.
func FromEdges(n int, edges []Edge) *Graph {
	return build(n, [][]Edge{edges}, false)
}

// FromEdgesDedup builds a Graph with n vertices, collapsing duplicate
// edges. Self-loops are kept: the paper's kernels tolerate them and
// some web crawls contain them.
func FromEdgesDedup(n int, edges []Edge) *Graph {
	return build(n, [][]Edge{edges}, true)
}

// build counting-sorts edge shards — the per-chunk slices the edge-list
// parser produces — into the out-CSR and hands it to fromCSR, which
// sorts each neighbour list and derives the in-CSR, as it does for the
// binary loader and ApplyEdits. The edge sequence is the concatenation
// of the shards.
//
// Each pass splits the vertices into one contiguous range per worker
// and every worker scans all shards, touching only the vertices it
// owns: disjoint writes, no atomics, and each list receives its
// entries in edge-sequence order at any worker count. One worker is
// the serial build.
func build(n int, shards [][]Edge, dedup bool) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	m := int64(0)
	for _, sh := range shards {
		m += int64(len(sh))
	}
	workers := csrWorkers(m)
	idx := make([]int64, n+1)
	// The degree count skips edges with an endpoint out of range, so a
	// total short of m means a bad edge; panicking here rather than in
	// a worker goroutine keeps the panic recoverable by the caller.
	par.ForChunks(context.Background(), workers, workers, func(c, _ int) {
		lo, hi := par.Range(n, workers, c)
		vlo, vhi := NodeID(lo), NodeID(hi)
		for _, sh := range shards {
			for _, e := range sh {
				if e.From >= vlo && e.From < vhi && int(e.To) < n {
					idx[e.From+1]++
				}
			}
		}
	})
	for i := 0; i < n; i++ {
		idx[i+1] += idx[i]
	}
	if idx[n] != m {
		panicOutOfRange(n, shards)
	}
	adj := make([]NodeID, m)
	cursor := make([]int64, n)
	copy(cursor, idx[:n])
	par.ForChunks(context.Background(), workers, workers, func(c, _ int) {
		lo, hi := par.Range(n, workers, c)
		vlo, vhi := NodeID(lo), NodeID(hi)
		for _, sh := range shards {
			for _, e := range sh {
				if e.From >= vlo && e.From < vhi {
					adj[cursor[e.From]] = e.To
					cursor[e.From]++
				}
			}
		}
	})
	if dedup {
		par.ForChunks(context.Background(), workers, workers, func(c, _ int) {
			lo, hi := par.Range(n, workers, c)
			sortAdjacency(idx, adj, lo, hi)
		})
		idx, adj = dedupAdjacency(n, idx, adj, workers)
	}
	return fromCSR(n, idx, adj)
}

// panicOutOfRange panics naming the first edge with an endpoint
// outside [0, n).
func panicOutOfRange(n int, shards [][]Edge) {
	for _, sh := range shards {
		for _, e := range sh {
			if int(e.From) >= n || int(e.To) >= n {
				panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", e.From, e.To, n))
			}
		}
	}
}

// sortAdjacency sorts the neighbour lists of vertices [ulo, uhi).
// Counting-scatter already emits a vertex's neighbours in edge-list
// order, which for generator output and CSR round trips is usually
// ascending, so the common case is a pure check.
func sortAdjacency(idx []int64, adj []NodeID, ulo, uhi int) {
	for u := ulo; u < uhi; u++ {
		lst := adj[idx[u]:idx[u+1]]
		if !slices.IsSorted(lst) {
			slices.Sort(lst)
		}
	}
}

// dedupAdjacency collapses duplicates in sorted neighbour lists with a
// count pass, a prefix sum, and a compaction pass into a fresh array,
// each partitioned by vertex range.
func dedupAdjacency(n int, idx []int64, adj []NodeID, workers int) ([]int64, []NodeID) {
	newIdx := make([]int64, n+1)
	par.ForChunks(context.Background(), workers, workers, func(c, _ int) {
		lo, hi := par.Range(n, workers, c)
		for u := lo; u < hi; u++ {
			lst := adj[idx[u]:idx[u+1]]
			uniq := int64(0)
			for i, v := range lst {
				if i == 0 || v != lst[i-1] {
					uniq++
				}
			}
			newIdx[u+1] = uniq
		}
	})
	for i := 0; i < n; i++ {
		newIdx[i+1] += newIdx[i]
	}
	out := make([]NodeID, newIdx[n])
	par.ForChunks(context.Background(), workers, workers, func(c, _ int) {
		lo, hi := par.Range(n, workers, c)
		for u := lo; u < hi; u++ {
			lst := adj[idx[u]:idx[u+1]]
			pos := newIdx[u]
			for i, v := range lst {
				if i == 0 || v != lst[i-1] {
					out[pos] = v
					pos++
				}
			}
		}
	})
	return newIdx, out
}

// fromCSR wraps existing out-CSR arrays (which it takes ownership of)
// into a Graph, deriving the in-CSR by a counting pass over the
// out-adjacency instead of materializing an O(m) edge list. Offsets
// must be validated (monotone, outIdx[n] == len(outAdj)) and every
// neighbour must be < n; neighbour lists are sorted in place where
// needed to restore the package invariant.
func fromCSR(n int, outIdx []int64, outAdj []NodeID) *Graph {
	csrBuilds.Add(1)
	workers := csrWorkers(int64(len(outAdj)))
	par.ForChunks(context.Background(), workers, workers, func(c, _ int) {
		lo, hi := par.Range(n, workers, c)
		sortAdjacency(outIdx, outAdj, lo, hi)
	})
	inIdx := make([]int64, n+1)
	par.ForChunks(context.Background(), workers, workers, func(c, _ int) {
		lo, hi := par.Range(n, workers, c)
		vlo, vhi := NodeID(lo), NodeID(hi)
		for _, v := range outAdj {
			if v >= vlo && v < vhi {
				inIdx[v+1]++
			}
		}
	})
	for i := 0; i < n; i++ {
		inIdx[i+1] += inIdx[i]
	}
	inAdj := make([]NodeID, len(outAdj))
	cursor := make([]int64, n)
	copy(cursor, inIdx[:n])
	// Scatter scans sources in ascending order, so each in-neighbour
	// list comes out already sorted — no sort pass needed.
	par.ForChunks(context.Background(), workers, workers, func(c, _ int) {
		lo, hi := par.Range(n, workers, c)
		vlo, vhi := NodeID(lo), NodeID(hi)
		for u := 0; u < n; u++ {
			for _, v := range outAdj[outIdx[u]:outIdx[u+1]] {
				if v >= vlo && v < vhi {
					inAdj[cursor[v]] = NodeID(u)
					cursor[v]++
				}
			}
		}
	})
	return &Graph{n: n, outIdx: outIdx, outAdj: outAdj, inIdx: inIdx, inAdj: inAdj}
}

// Undirected returns the symmetric closure of g: for every edge (u,v)
// both (u,v) and (v,u) exist, with duplicates collapsed. Several
// baseline orderings (RCM, SlashBurn, LDG) operate on this view.
//
// Vertex u's closure neighbours are the sorted union of its out- and
// in-lists, both already sorted, so the closure is built by
// per-vertex-range merge passes — no O(m) edge-list expansion. The
// closure is symmetric, so the in-CSR aliases the out-CSR.
func (g *Graph) Undirected() *Graph {
	csrBuilds.Add(1)
	n := g.n
	workers := csrWorkers(2 * int64(len(g.outAdj)))
	idx := make([]int64, n+1)
	par.ForChunks(context.Background(), workers, workers, func(c, _ int) {
		lo, hi := par.Range(n, workers, c)
		var buf []NodeID
		for u := lo; u < hi; u++ {
			buf = unionSorted(buf[:0], g.OutNeighbors(NodeID(u)), g.InNeighbors(NodeID(u)))
			idx[u+1] = int64(len(buf))
		}
	})
	for i := 0; i < n; i++ {
		idx[i+1] += idx[i]
	}
	adj := make([]NodeID, idx[n])
	par.ForChunks(context.Background(), workers, workers, func(c, _ int) {
		lo, hi := par.Range(n, workers, c)
		for u := lo; u < hi; u++ {
			dst := adj[idx[u]:idx[u]:idx[u+1]]
			unionSorted(dst, g.OutNeighbors(NodeID(u)), g.InNeighbors(NodeID(u)))
		}
	})
	return &Graph{n: n, outIdx: idx, outAdj: adj, inIdx: idx, inAdj: adj}
}

// unionSorted appends the sorted union of two sorted lists to dst,
// dropping duplicates both within and across the inputs.
func unionSorted(dst []NodeID, a, b []NodeID) []NodeID {
	var last NodeID
	have := false
	emit := func(v NodeID) {
		if !have || v != last {
			dst = append(dst, v)
			last, have = v, true
		}
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			emit(a[i])
			i++
		} else {
			emit(b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		emit(a[i])
	}
	for ; j < len(b); j++ {
		emit(b[j])
	}
	return dst
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	csrBuilds.Add(1)
	cp := &Graph{n: g.n}
	cp.outIdx = append([]int64(nil), g.outIdx...)
	cp.outAdj = append([]NodeID(nil), g.outAdj...)
	cp.inIdx = append([]int64(nil), g.inIdx...)
	cp.inAdj = append([]NodeID(nil), g.inAdj...)
	return cp
}

// Equal reports whether two graphs have identical vertex counts and
// adjacency structure.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || len(g.outAdj) != len(h.outAdj) {
		return false
	}
	for i := range g.outIdx {
		if g.outIdx[i] != h.outIdx[i] {
			return false
		}
	}
	for i := range g.outAdj {
		if g.outAdj[i] != h.outAdj[i] {
			return false
		}
	}
	return true
}
