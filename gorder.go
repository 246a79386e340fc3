// Package gorder is a Go implementation of "Speedup Graph Processing
// by Graph Ordering" (Wei, Yu, Lu, Lin — SIGMOD 2016): cache-aware
// vertex reordering for graph algorithms.
//
// The package renumbers the vertices of a directed graph so that
// vertices accessed together get nearby IDs — and therefore share
// cache lines — which speeds up unmodified graph algorithms by 10-50%
// in the paper's experiments. The flagship ordering is Gorder
// (Order / OrderWithOptions); nine classic baselines from the paper's
// evaluation are included, along with the paper's nine benchmark
// kernels, synthetic dataset generators, and a cache-hierarchy
// simulator for reproducing the paper's cache statistics.
//
// Quick start:
//
//	g := gorder.NewWebGraph(100_000, 7)       // or gorder.ReadEdgeList(file)
//	perm := gorder.Order(g)                   // Gorder permutation
//	fast := gorder.Apply(g, perm)             // relabeled graph
//	ranks := gorder.PageRank(fast, 100, 0.85) // now cache-friendly
//
// The subpackages under internal/ hold the implementation; everything
// a downstream user needs is re-exported here. See DESIGN.md for the
// architecture and EXPERIMENTS.md for the reproduced evaluation.
package gorder

import (
	"io"

	"gorder/internal/graph"
	"gorder/internal/order"
)

// Graph is a directed graph in Compressed Sparse Row form with both
// out- and in-adjacency. Construct one with FromEdges, a generator
// (NewSocialGraph, NewWebGraph, ...), or a reader (ReadEdgeList,
// ReadBinary).
type Graph = graph.Graph

// Edge is a directed edge used when building a Graph.
type Edge = graph.Edge

// NodeID identifies a vertex (dense integers 0..N-1).
type NodeID = graph.NodeID

// Permutation maps old vertex IDs to new ones: perm[u] is the new ID
// of u. Every ordering in this package returns one; Apply relabels a
// graph with it.
type Permutation = order.Permutation

// Stats summarises a graph (sizes, degree extremes); see ComputeStats.
type Stats = graph.Stats

// FromEdges builds a graph with n vertices from a directed edge list,
// keeping parallel edges.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// FromEdgesDedup builds a graph with n vertices, collapsing duplicate
// edges.
func FromEdgesDedup(n int, edges []Edge) *Graph { return graph.FromEdgesDedup(n, edges) }

// ReadEdgeList parses a whitespace-separated text edge list ("u v"
// per line, # or % comments) — the format SNAP and Konect datasets
// use. It streams r in bounded memory; parsing and CSR construction
// run on GOMAXPROCS workers for large inputs.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeListStream(r) }

// ReadEdgeListBytes parses a text edge list already held in memory,
// skipping the reader copy.
func ReadEdgeListBytes(data []byte) (*Graph, error) { return graph.ReadEdgeListBytes(data) }

// ReadBinary loads a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// ReadBinaryBytes loads a binary graph already held in memory.
func ReadBinaryBytes(data []byte) (*Graph, error) { return graph.ReadBinaryBytes(data) }

// EditStats summarises what an ApplyEdits call actually changed.
type EditStats = graph.EditStats

// ApplyEdits derives a new graph from g by appending addNodes fresh
// vertices and applying a batch of edge deletions then insertions —
// the mutation primitive behind gorderd's POST /graphs/{name}/edges.
// g is unchanged; versioned stores keep both. Deletes run before
// adds, duplicate requests collapse, and already-satisfied requests
// are counted rather than failed, so batches replay idempotently.
func ApplyEdits(g *Graph, addNodes int, add, del []Edge) (*Graph, EditStats, error) {
	return graph.ApplyEdits(g, addNodes, add, del)
}

// Apply relabels g under perm: vertex u becomes perm[u]. It panics if
// perm is not a permutation of g's vertices.
func Apply(g *Graph, perm Permutation) *Graph { return g.Relabel(perm) }

// ComputeStats scans g once and returns its summary statistics.
func ComputeStats(g *Graph) Stats { return graph.ComputeStats(g) }

// ReadPermutation parses a permutation file (one new ID per line,
// line number = old ID — the format Permutation.WriteTo produces and
// the original Gorder release exchanges) and validates it.
func ReadPermutation(r io.Reader) (Permutation, error) { return order.ReadPermutation(r) }
