package exec

import (
	"context"
	"sync/atomic"

	"gorder/internal/graph"
	"gorder/internal/par"
)

// The standard switching heuristics (Beamer et al.): go bottom-up
// when the frontier's out-edges exceed 1/alpha of the unexplored
// edges; return top-down when the frontier shrinks below n/beta
// vertices. Both inputs are set-derived (sizes and degree sums), so
// every worker count takes exactly the same direction decisions.
const (
	dobfsAlpha = 14
	dobfsBeta  = 24
)

// unvisited marks not-yet-reached vertices in the distance array while
// the traversal runs; it equals algos.Unreached.
const unvisited = int32(-1)

// frontierBlock is how many discoveries a chunk buffers on its stack
// before reserving room for them in the shared next frontier: one
// atomic add per block rather than per vertex, and no per-chunk buffer
// that outlives the level.
const frontierBlock = 256

// DOBFS runs a direction-optimising BFS from src over `workers`
// goroutines and returns hop distances over out-edges (-1 where
// unreachable) plus the number of vertices reached — bit-identical to
// algos.BFSFrom at any worker count, because every vertex's distance
// is its BFS level regardless of which worker discovers it first.
// Workers = 1 is the serial case and runs inline, with no goroutines.
//
// Top-down levels chunk the frontier: workers claim contiguous
// frontier segments and win vertices with an atomic compare-and-swap
// on the distance entry. Bottom-up levels range-partition the vertex
// space along contiguous ordering windows: each worker scans only its
// own chunk's unvisited vertices (sole writer — no atomics on the
// stores it owns) looking for a parent on the previous level through
// the in-CSR. Either way a vertex is discovered once, so the next
// frontier fits in n entries; chunks fill it in reserved blocks, and
// its order (which only affects locality, never distances) depends on
// the schedule.
func DOBFS(ctx context.Context, g *graph.Graph, src graph.NodeID, workers int, sc *Scratch) (dist []int32, reached int, err error) {
	n := g.NumNodes()
	if sc == nil {
		sc = new(Scratch)
	}
	dist = make([]int32, n)
	for i := range dist {
		dist[i] = unvisited
	}
	dist[src] = 0
	reached = 1

	frontier, next := sc.frontiers(n)
	frontier = frontier[:1]
	frontier[0] = src
	frontierEdges := int64(g.OutDegree(src))
	unexploredEdges := g.NumEdges() - frontierEdges
	level := int32(0)

	outIdx, outAdj := g.OutIndex(), g.OutAdjacency()
	inIdx, inAdj := g.InIndex(), g.InAdjacency()

	for len(frontier) > 0 {
		level++
		// Bottom-up chunks own contiguous vertex windows: only the owner
		// writes those distances, everyone reads the previous level's
		// entries through atomic loads. Top-down chunks split the
		// frontier; discoveries are won by CAS, so each vertex is
		// reported by exactly one chunk.
		bottomUp := frontierEdges > unexploredEdges/dobfsAlpha && len(frontier) > n/dobfsBeta
		span := len(frontier)
		if bottomUp {
			span = n
		}
		chunks := par.Chunks(span)
		var tail, edges atomic.Int64
		if err := par.ForChunks(ctx, workers, chunks, func(c, _ int) {
			var block [frontierBlock]graph.NodeID
			found := block[:0]
			var deg int64
			lo, hi := par.Range(span, chunks, c)
			if bottomUp {
				for v := lo; v < hi; v++ {
					if dist[v] != unvisited {
						continue
					}
					for _, u := range inAdj[inIdx[v]:inIdx[v+1]] {
						if atomic.LoadInt32(&dist[u]) == level-1 {
							atomic.StoreInt32(&dist[v], level)
							if len(found) == frontierBlock {
								found = reserve(next, &tail, found)
							}
							found = append(found, graph.NodeID(v))
							deg += outIdx[v+1] - outIdx[v]
							break
						}
					}
				}
			} else {
				for _, u := range frontier[lo:hi] {
					for _, v := range outAdj[outIdx[u]:outIdx[u+1]] {
						if atomic.LoadInt32(&dist[v]) == unvisited &&
							atomic.CompareAndSwapInt32(&dist[v], unvisited, level) {
							if len(found) == frontierBlock {
								found = reserve(next, &tail, found)
							}
							found = append(found, v)
							deg += outIdx[v+1] - outIdx[v]
						}
					}
				}
			}
			reserve(next, &tail, found)
			edges.Add(deg)
		}); err != nil {
			return nil, 0, err
		}
		frontierEdges = edges.Load()
		frontier, next = next[:tail.Load()], frontier[:n]
		reached += len(frontier)
		unexploredEdges -= frontierEdges
		if unexploredEdges < 0 {
			unexploredEdges = 0
		}
	}
	return dist, reached, nil
}

// reserve copies found into next at a block of positions claimed from
// tail, so chunks running concurrently never write the same entries,
// and returns found emptied for reuse.
func reserve(next []graph.NodeID, tail *atomic.Int64, found []graph.NodeID) []graph.NodeID {
	k := int64(len(found))
	copy(next[tail.Add(k)-k:], found)
	return found[:0]
}
