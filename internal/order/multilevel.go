package order

import (
	"sort"

	"gorder/internal/graph"
)

// Multilevel ordering: both papers drop Metis because its memory use
// does not scale, but the multilevel idea behind it — coarsen by
// matching, solve small, project back — works fine for *ordering* at
// a fraction of the cost. Multilevel coarsens the graph with greedy
// heavy-edge matching until it is small, orders the coarse graph with
// any expensive method (Gorder, typically — see core.MultilevelOrder),
// and expands supervertices back into their members, keeping matched
// pairs adjacent at every level.

// MultilevelOptions configures Multilevel.
type MultilevelOptions struct {
	// CoarsenTo stops coarsening when at most this many supervertices
	// remain (default 2048).
	CoarsenTo int
	// OrderCoarse orders the coarsest graph. Nil defaults to RCM,
	// which is cheap and locality-friendly; core.MultilevelOrder
	// passes Gorder here.
	OrderCoarse func(g *graph.Graph) Permutation
}

// maxLevels bounds the coarsening depth.
const maxLevels = 20

// mlLevel is one coarsening level: an undirected weighted adjacency
// plus the mapping from this level's vertices to the two (or one)
// finer-level vertices they merge.
type mlLevel struct {
	adj    []map[int32]int64
	first  []int32 // finer-level member
	second []int32 // second member or -1
}

// Multilevel computes the multilevel ordering of g.
func Multilevel(g *graph.Graph, opt MultilevelOptions) Permutation {
	n := g.NumNodes()
	if n == 0 {
		return Permutation{}
	}
	if opt.CoarsenTo <= 0 {
		opt.CoarsenTo = 2048
	}
	if opt.OrderCoarse == nil {
		opt.OrderCoarse = func(cg *graph.Graph) Permutation { return RCM(cg) }
	}

	// Level 0: undirected view with unit weights (parallel directions
	// merge into weight).
	u := g.Undirected()
	adj := make([]map[int32]int64, n)
	for v := 0; v < n; v++ {
		m := make(map[int32]int64)
		for _, w := range u.OutNeighbors(graph.NodeID(v)) {
			if int(w) != v {
				m[int32(w)]++
			}
		}
		adj[v] = m
	}

	var levels []mlLevel
	for len(adj) > opt.CoarsenTo && len(levels) < maxLevels {
		lvl, coarse := coarsen(adj)
		if len(coarse) >= len(adj) { // matching stalled
			break
		}
		levels = append(levels, lvl)
		adj = coarse
	}

	// Order the coarsest graph.
	coarseSeq := opt.OrderCoarse(toGraph(adj)).Sequence()

	// Expand back down: replace each supervertex by its members.
	seq := make([]graph.NodeID, 0, n)
	cur := make([]int32, len(coarseSeq))
	for i, v := range coarseSeq {
		cur[i] = int32(v)
	}
	for li := len(levels) - 1; li >= 0; li-- {
		lvl := levels[li]
		next := make([]int32, 0, 2*len(cur))
		for _, v := range cur {
			next = append(next, lvl.first[v])
			if lvl.second[v] >= 0 {
				next = append(next, lvl.second[v])
			}
		}
		cur = next
	}
	for _, v := range cur {
		seq = append(seq, graph.NodeID(v))
	}
	return FromSequence(seq)
}

// coarsen performs one round of greedy heavy-edge matching, visiting
// vertices in ascending degree order (light vertices first, the
// classic heuristic) and matching each with its heaviest unmatched
// neighbour.
func coarsen(adj []map[int32]int64) (mlLevel, []map[int32]int64) {
	n := len(adj)
	visit := make([]int32, n)
	for i := range visit {
		visit[i] = int32(i)
	}
	sort.SliceStable(visit, func(a, b int) bool {
		return len(adj[visit[a]]) < len(adj[visit[b]])
	})
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	for _, v := range visit {
		if match[v] != -1 {
			continue
		}
		best := int32(-1)
		var bestW int64
		for w, wt := range adj[v] {
			if match[w] == -1 && (wt > bestW || (wt == bestW && (best == -1 || w < best))) {
				best, bestW = w, wt
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v // matched with itself
		}
	}
	// Assign coarse IDs: one per pair (smaller member decides order).
	coarseID := make([]int32, n)
	for i := range coarseID {
		coarseID[i] = -1
	}
	lvl := mlLevel{}
	var nc int32
	for v := int32(0); v < int32(n); v++ {
		if coarseID[v] != -1 {
			continue
		}
		m := match[v]
		coarseID[v] = nc
		lvl.first = append(lvl.first, v)
		if m != v && m >= 0 {
			coarseID[m] = nc
			lvl.second = append(lvl.second, m)
		} else {
			lvl.second = append(lvl.second, -1)
		}
		nc++
	}
	// Build the coarse adjacency.
	coarse := make([]map[int32]int64, nc)
	for i := range coarse {
		coarse[i] = make(map[int32]int64)
	}
	for v := 0; v < n; v++ {
		cv := coarseID[v]
		for w, wt := range adj[v] {
			cw := coarseID[w]
			if cv != cw {
				coarse[cv][cw] += wt
			}
		}
	}
	lvl.adj = adj
	return lvl, coarse
}

// toGraph converts a weighted adjacency to an unweighted graph.Graph
// for the coarse orderer (weights guided the matching; the orderer
// sees topology).
func toGraph(adj []map[int32]int64) *graph.Graph {
	var edges []graph.Edge
	for v, m := range adj {
		for w := range m {
			edges = append(edges, graph.Edge{From: graph.NodeID(v), To: graph.NodeID(w)})
		}
	}
	return graph.FromEdgesDedup(len(adj), edges)
}
