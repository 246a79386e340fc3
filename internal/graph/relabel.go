package graph

import (
	"context"
	"fmt"

	"gorder/internal/par"
)

// Relabel returns a new graph in which vertex u of g becomes vertex
// perm[u]. perm must be a permutation of 0..N-1; Relabel panics
// otherwise. This is the operation every ordering method feeds:
// compute a permutation, relabel, and run the kernels on the result.
//
// Each direction's CSR is mapped straight through perm — no edge list
// and no counting pass — so the only memory Relabel takes beyond the
// result is a bitmap of N bools. The arrays equal those FromEdges
// builds from the relabeled edge list: same rows, each sorted.
func (g *Graph) Relabel(perm []NodeID) *Graph {
	if len(perm) != g.n {
		panic(fmt.Sprintf("graph: permutation length %d for graph with %d vertices", len(perm), g.n))
	}
	seen := make([]bool, g.n)
	for _, p := range perm {
		if int(p) >= g.n || seen[p] {
			panic("graph: not a permutation")
		}
		seen[p] = true
	}
	workers := csrWorkers(int64(len(g.outAdj)))
	csrBuilds.Add(1)
	h := &Graph{n: g.n}
	h.outIdx, h.outAdj = relabelCSR(g.outIdx, g.outAdj, perm, workers)
	h.inIdx, h.inAdj = relabelCSR(g.inIdx, g.inAdj, perm, workers)
	return h
}

// relabelCSR maps one direction of a CSR through perm: row perm[u] of
// the result holds perm of each entry of row u, sorted. perm is a
// bijection, so the workers, each owning a contiguous range of old
// vertices, write disjoint rows.
func relabelCSR(idx []int64, adj []NodeID, perm []NodeID, workers int) ([]int64, []NodeID) {
	n := len(perm)
	nidx := make([]int64, n+1)
	for u, p := range perm {
		nidx[p+1] = idx[u+1] - idx[u]
	}
	for x := 0; x < n; x++ {
		nidx[x+1] += nidx[x]
	}
	nadj := make([]NodeID, len(adj))
	par.ForChunks(context.Background(), workers, workers, func(c, _ int) {
		lo, hi := par.Range(n, workers, c)
		for u := lo; u < hi; u++ {
			p := perm[u]
			row := nadj[nidx[p]:nidx[p+1]]
			for i, v := range adj[idx[u]:idx[u+1]] {
				row[i] = perm[v]
			}
			sortAdjacency(nidx, nadj, int(p), int(p)+1)
		}
	})
	return nidx, nadj
}
