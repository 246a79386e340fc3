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

// build constructs the graph from edge shards — the per-worker slices
// the parallel edge-list parser produces. Shard order is significant:
// the edge sequence is the concatenation of the shards, and both
// builders place each vertex's neighbours in that order before
// sorting, so serial and parallel construction yield identical arrays.
func build(n int, shards [][]Edge, dedup bool) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	m := int64(0)
	for _, sh := range shards {
		m += int64(len(sh))
	}
	workers := csrWorkers(m)
	validateShards(n, shards, workers)
	g := &Graph{n: n}
	if workers > 1 {
		g.outIdx, g.outAdj = buildCSRParallel(n, shards, false, dedup, workers)
		g.inIdx, g.inAdj = buildCSRParallel(n, shards, true, dedup, workers)
	} else {
		g.outIdx, g.outAdj = buildCSRSerial(n, shards, false, dedup)
		g.inIdx, g.inAdj = buildCSRSerial(n, shards, true, dedup)
	}
	if dedup && len(g.outAdj) != len(g.inAdj) {
		// Dedup must agree in both directions; a mismatch means a bug.
		panic("graph: inconsistent dedup between directions")
	}
	return g
}

// validateShards panics on the first out-of-range endpoint. Running it
// up front keeps the construction passes panic-free, which matters
// because a panic inside a worker goroutine would kill the process
// instead of unwinding to the caller.
func validateShards(n int, shards [][]Edge, workers int) {
	type bad struct {
		e  Edge
		ok bool
	}
	found := make([]bad, workers)
	par.ForChunks(context.Background(), workers, workers, func(c, _ int) {
		for _, sh := range shards {
			lo, hi := par.Range(len(sh), workers, c)
			for _, e := range sh[lo:hi] {
				if int(e.From) >= n || int(e.To) >= n {
					found[c] = bad{e, true}
					return
				}
			}
		}
	})
	for _, b := range found {
		if b.ok {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", b.e.From, b.e.To, n))
		}
	}
}

// buildCSRSerial counting-sorts edges into a CSR array on one
// goroutine — the oracle the parallel builder is tested against. With
// reverse set the edge direction is flipped, producing the
// in-adjacency. Each neighbour list comes out sorted ascending.
func buildCSRSerial(n int, shards [][]Edge, reverse, dedup bool) (idx []int64, adj []NodeID) {
	idx = make([]int64, n+1)
	m := 0
	for _, sh := range shards {
		m += len(sh)
		for _, e := range sh {
			src := e.From
			if reverse {
				src = e.To
			}
			idx[src+1]++
		}
	}
	for i := 0; i < n; i++ {
		idx[i+1] += idx[i]
	}
	adj = make([]NodeID, m)
	cursor := make([]int64, n)
	copy(cursor, idx[:n])
	for _, sh := range shards {
		for _, e := range sh {
			src, dst := e.From, e.To
			if reverse {
				src, dst = dst, src
			}
			adj[cursor[src]] = dst
			cursor[src]++
		}
	}
	sortAdjacency(idx, adj, 0, n)
	if !dedup {
		return idx, adj
	}
	return dedupAdjacency(n, idx, adj)
}

// buildCSRParallel is the multi-core counting sort: per-vertex-range
// degree histograms merged by a prefix sum, then a scatter pass where
// each worker owns a contiguous vertex range and writes only the
// adjacency slots of its own vertices — disjoint writes, no atomics.
// Every worker scans all shards in order, so each neighbour list
// receives its entries in exactly the sequence the serial scatter
// produces, and the final sort pass yields identical arrays.
func buildCSRParallel(n int, shards [][]Edge, reverse, dedup bool, workers int) (idx []int64, adj []NodeID) {
	idx = make([]int64, n+1)
	par.ForChunks(context.Background(), workers, workers, func(c, _ int) {
		lo, hi := par.Range(n, workers, c)
		vlo, vhi := NodeID(lo), NodeID(hi)
		for _, sh := range shards {
			for _, e := range sh {
				src := e.From
				if reverse {
					src = e.To
				}
				if src >= vlo && src < vhi {
					idx[src+1]++
				}
			}
		}
	})
	for i := 0; i < n; i++ {
		idx[i+1] += idx[i]
	}
	adj = make([]NodeID, idx[n])
	cursor := make([]int64, n)
	copy(cursor, idx[:n])
	par.ForChunks(context.Background(), workers, workers, func(c, _ int) {
		lo, hi := par.Range(n, workers, c)
		vlo, vhi := NodeID(lo), NodeID(hi)
		for _, sh := range shards {
			for _, e := range sh {
				src, dst := e.From, e.To
				if reverse {
					src, dst = dst, src
				}
				if src >= vlo && src < vhi {
					adj[cursor[src]] = dst
					cursor[src]++
				}
			}
		}
	})
	par.ForChunks(context.Background(), workers, workers, func(c, _ int) {
		lo, hi := par.Range(n, workers, c)
		sortAdjacency(idx, adj, lo, hi)
	})
	if !dedup {
		return idx, adj
	}
	return dedupAdjacencyParallel(n, idx, adj, workers)
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

// dedupAdjacency collapses duplicates in place, then compacts —
// adjacency lists must already be sorted.
func dedupAdjacency(n int, idx []int64, adj []NodeID) ([]int64, []NodeID) {
	newIdx := make([]int64, n+1)
	w := int64(0)
	for u := 0; u < n; u++ {
		newIdx[u] = w
		var prev NodeID
		first := true
		for _, v := range adj[idx[u]:idx[u+1]] {
			if first || v != prev {
				adj[w] = v
				w++
				prev, first = v, false
			}
		}
	}
	newIdx[n] = w
	return newIdx, adj[:w:w]
}

// dedupAdjacencyParallel collapses duplicates with a count pass, a
// prefix sum, and a compaction pass into a fresh array, each
// partitioned by vertex range.
func dedupAdjacencyParallel(n int, idx []int64, adj []NodeID, workers int) ([]int64, []NodeID) {
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
