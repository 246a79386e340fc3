// Package graph implements the directed-graph substrate the paper's
// experiments run on: a Compressed Sparse Row (CSR) representation with
// both out- and in-adjacency, builders from edge lists, text and binary
// I/O, vertex relabeling under a permutation, and basic statistics.
//
// Vertices are dense integers 0..N-1 stored as uint32 (the paper's
// largest dataset has under 10^8 vertices). Neighbour lists are sorted
// ascending, so traversals visit neighbours in lexicographic order as
// the paper specifies, and equal graphs have identical representations.
package graph

import "sync/atomic"

// csrBuilds counts graphs constructed; see CSRBuilds.
var csrBuilds atomic.Int64

// CSRBuilds returns how many graphs this process has constructed —
// from edge lists, binary encodings, edits, relabelings, closures or
// clones — each of which allocates its CSR arrays. Paths that should
// build few graphs, like an edit of a resident tip, are measured by it.
func CSRBuilds() int64 { return csrBuilds.Load() }

// NodeID identifies a vertex. IDs are dense: a graph with N vertices
// uses exactly the IDs 0..N-1.
type NodeID = uint32

// Graph is an immutable directed graph in CSR form. Both directions
// are materialised: OutNeighbors serves forward traversals and
// InNeighbors serves pull-style kernels (PageRank) and the Gorder
// sibling score. The zero value is the empty graph.
type Graph struct {
	n      int
	outIdx []int64 // len n+1; outAdj[outIdx[u]:outIdx[u+1]] = out-neighbours of u
	outAdj []NodeID
	inIdx  []int64
	inAdj  []NodeID
}

// NumNodes returns the number of vertices N.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of directed edges M.
func (g *Graph) NumEdges() int64 { return int64(len(g.outAdj)) }

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.outIdx[u+1] - g.outIdx[u])
}

// InDegree returns the in-degree of u.
func (g *Graph) InDegree(u NodeID) int {
	return int(g.inIdx[u+1] - g.inIdx[u])
}

// Degree returns the total degree (in + out) of u.
func (g *Graph) Degree(u NodeID) int { return g.OutDegree(u) + g.InDegree(u) }

// OutNeighbors returns the out-neighbours of u in ascending ID order.
// The returned slice aliases the graph's storage and must not be
// modified.
func (g *Graph) OutNeighbors(u NodeID) []NodeID {
	return g.outAdj[g.outIdx[u]:g.outIdx[u+1]]
}

// InNeighbors returns the in-neighbours of u in ascending ID order.
// The returned slice aliases the graph's storage and must not be
// modified.
func (g *Graph) InNeighbors(u NodeID) []NodeID {
	return g.inAdj[g.inIdx[u]:g.inIdx[u+1]]
}

// HasEdge reports whether the directed edge (u, v) exists, by binary
// search over u's sorted out-neighbour list.
func (g *Graph) HasEdge(u, v NodeID) bool {
	adj := g.OutNeighbors(u)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && adj[lo] == v
}

// HasParallelEdges reports whether some directed edge appears more
// than once. FromEdges and the edge-list readers keep parallel edges;
// FromEdgesDedup collapses them. Neighbour lists are sorted, so one
// pass comparing adjacent entries decides it.
func (g *Graph) HasParallelEdges() bool {
	for u := 0; u < g.n; u++ {
		adj := g.outAdj[g.outIdx[u]:g.outIdx[u+1]]
		for i := 1; i < len(adj); i++ {
			if adj[i] == adj[i-1] {
				return true
			}
		}
	}
	return false
}

// Edges calls fn for every directed edge (u, v) in CSR order. It stops
// early if fn returns false.
func (g *Graph) Edges(fn func(u, v NodeID) bool) {
	for u := 0; u < g.n; u++ {
		for _, v := range g.OutNeighbors(NodeID(u)) {
			if !fn(NodeID(u), v) {
				return
			}
		}
	}
}

// MemoryBytes estimates the heap footprint of the CSR arrays (both
// directions). The residency budget in internal/store charges graphs
// against this figure.
func (g *Graph) MemoryBytes() int64 {
	return int64(len(g.outIdx)+len(g.inIdx))*8 + int64(len(g.outAdj)+len(g.inAdj))*4
}

// OutIndex exposes the raw CSR offset array (length N+1). It aliases
// internal storage and must not be modified; the traced kernels use it
// to replay the exact memory layout through the cache simulator.
func (g *Graph) OutIndex() []int64 { return g.outIdx }

// OutAdjacency exposes the raw out-neighbour array (length M). It
// aliases internal storage and must not be modified.
func (g *Graph) OutAdjacency() []NodeID { return g.outAdj }

// InIndex exposes the raw in-CSR offset array (length N+1), aliasing
// internal storage.
func (g *Graph) InIndex() []int64 { return g.inIdx }

// InAdjacency exposes the raw in-neighbour array (length M), aliasing
// internal storage.
func (g *Graph) InAdjacency() []NodeID { return g.inAdj }
