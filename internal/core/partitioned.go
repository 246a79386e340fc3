package core

import (
	"context"

	"gorder/internal/graph"
	"gorder/internal/order"
	"gorder/internal/par"
)

// Partition-parallel Gorder: the multi-core answer to the sequential
// greedy's superlinear cost (Table 2). The graph is cut into
// partitions, the PR 5 unit-heap greedy runs on every partition's
// subgraph concurrently — each run owns its heap and scratch arrays,
// nothing is shared — and the per-partition orders are stitched into
// one sequence by inter-partition edge weight, so heavily connected
// partitions end up adjacent in the final ID space.
//
// Two design points carry the ordering quality; both were measured on
// the 1M-edge web workload (see `bench -exp parallel`):
//
//   - Guide partitioning. Chunking a BFS visit sequence keeps only
//     ~42% of the exact ordering's same-partition score on web graphs:
//     Gorder's score is dominated by hub-sibling groups, and hop-order
//     scatters each hub's out-neighbourhood across chunks. Chunking
//     the BOBA sequence instead — vertices in first-appearance-as-
//     destination order, so each hub's siblings sit consecutively —
//     lifts that to ~56%, for two O(m) passes.
//   - Ghost hubs. An induced subgraph drops the partition's external
//     in-neighbours, which blinds the per-partition greedy to sibling
//     relations through out-of-partition hubs — even when both
//     siblings are in the partition. Each external in-neighbour with
//     at least minGhostChildren member children therefore enters the
//     subgraph as a ghost vertex with its member out-edges, restoring
//     those shared-in-neighbour scores; ghosts are dropped from the
//     final sequence after ordering. Ghosts roughly double the
//     subgraph but raise the retained score from ~45% to >90% of
//     exact.
//
// Two properties matter for the serving layer:
//
//   - Workers is pure scheduling. The partition grid depends only on
//     (graph, Options, PartitionedOptions minus Workers), partition
//     runs write into per-partition slots, and the stitch is a
//     deterministic greedy over partition weights — so the permutation
//     is bit-identical at any worker count and GOMAXPROCS, and the
//     artifact cache can ignore Workers.
//   - The speedup is twofold: concurrency across partitions, plus the
//     work reduction of running a superlinear greedy on k small
//     subproblems instead of one large one. Even a single core orders
//     several times faster at the default partition count.

// DefaultPartitions is the default partition count. It is a fixed
// constant — never derived from GOMAXPROCS — so the permutation does
// not depend on the machine; 16 partitions give 8 workers headroom
// for load balancing while keeping cross-partition score loss small.
const DefaultPartitions = 16

// minPartitionVertices keeps partitions from degenerating below the
// scale where the windowed greedy has anything to optimise.
const minPartitionVertices = 32

// minGhostChildren is the member-children count below which an
// external in-neighbour gets no ghost vertex. A hub with c member
// children can contribute at most c-1 within-window sibling scores, so
// single-child hubs are pure overhead; the threshold of 2 keeps every
// hub that can still produce a sibling pair.
const minGhostChildren = 2

// defaultPartitionHubThreshold is the HubThreshold applied to the
// per-partition greedy runs when the caller left Options.HubThreshold
// at zero. The partitioned ordering is already an approximation, so it
// defaults to the paper's hub optimisation: skipping sibling expansion
// through in-neighbours above this out-degree cut per-partition
// ordering time by ~40% and cost ~0.3% of the final score on the
// 1M-edge web workload.
const defaultPartitionHubThreshold = 1024

// PartitionedOptions configures OrderPartitioned beyond the Gorder
// Options the per-partition greedy consumes.
type PartitionedOptions struct {
	// Workers bounds the number of concurrent partition runs
	// (<= 0 selects GOMAXPROCS). It never affects the permutation.
	Workers int
	// Partitions is the partition count (<= 0 selects
	// DefaultPartitions). Part of the result: more partitions order
	// faster and forfeit more cross-partition score.
	Partitions int
}

func (po PartitionedOptions) partitions(n int) int {
	k := po.Partitions
	if k <= 0 {
		k = DefaultPartitions
	}
	if max := n / minPartitionVertices; k > max {
		k = max
	}
	if k < 1 {
		k = 1
	}
	return k
}

// OrderPartitioned computes the partition-parallel Gorder permutation
// with background context; see OrderPartitionedCtx.
func OrderPartitioned(g *graph.Graph, opt Options, po PartitionedOptions) order.Permutation {
	p, _ := OrderPartitionedCtx(context.Background(), g, opt, po)
	return p
}

// OrderPartitionedCtx computes the partition-parallel Gorder
// permutation: cut the BOBA guide sequence into contiguous chunks,
// order every chunk's ghost-extended subgraph with the unit-heap
// greedy on up to po.Workers goroutines, stitch by inter-partition
// edge weight. Cancellation propagates into the BOBA pass and every
// partition's greedy loop; the first error aborts the whole run.
//
// opt.HubThreshold keeps its OrderWith meaning inside each partition,
// with one twist: zero selects defaultPartitionHubThreshold rather
// than exact scoring (pass a negative value to force exact scores).
// Graphs that collapse to a single partition run the plain exact
// greedy with opt unchanged.
func OrderPartitionedCtx(ctx context.Context, g *graph.Graph, opt Options, po PartitionedOptions) (order.Permutation, error) {
	n := g.NumNodes()
	if n == 0 {
		return order.Permutation{}, ctx.Err()
	}
	k := po.partitions(n)
	if k == 1 {
		return OrderWithCtx(ctx, g, opt)
	}
	guide, err := order.BOBACtx(ctx, g, po.Workers)
	if err != nil {
		return nil, err
	}
	parts := chunkPartition(guide.Sequence(), k)
	popt := opt
	switch {
	case popt.HubThreshold == 0:
		popt.HubThreshold = defaultPartitionHubThreshold
	case popt.HubThreshold < 0:
		popt.HubThreshold = 0
	}
	ordered, err := orderPartitions(ctx, g, popt, po.Workers, parts)
	if err != nil {
		return nil, err
	}
	chain := stitchOrder(g, parts)
	seq := make([]graph.NodeID, 0, n)
	for _, pi := range chain {
		seq = append(seq, ordered[pi]...)
	}
	return order.FromSequence(seq), nil
}

// chunkPartition cuts seq into k near-equal contiguous chunks, for
// 1 <= k <= len(seq), so no chunk is empty.
func chunkPartition(seq []graph.NodeID, k int) [][]graph.NodeID {
	n := len(seq)
	parts := make([][]graph.NodeID, k)
	for c := range parts {
		lo, hi := c*n/k, (c+1)*n/k
		parts[c] = seq[lo:hi:hi]
	}
	return parts
}

// ghostScratch holds one worker goroutine's reusable per-partition
// buffers: the global-to-local vertex map, the external in-neighbour
// child counts, the list of touched externals (for O(touched) reset),
// and the subgraph edge buffer.
type ghostScratch struct {
	local    []int32 // -1, or local ID (members first, then ghosts)
	ghostCnt []int32
	touched  []graph.NodeID
	edges    []graph.Edge
}

func newGhostScratch(n int) *ghostScratch {
	sc := &ghostScratch{
		local:    make([]int32, n),
		ghostCnt: make([]int32, n),
	}
	for i := range sc.local {
		sc.local[i] = -1
	}
	return sc
}

// orderPartitions runs the greedy on every partition's ghost-extended
// subgraph, up to `workers` at a time, and returns each partition's
// ordered member sequence in global IDs. Results land in per-partition
// slots, so the claim order does not affect the output; each worker
// reuses one ghostScratch. On failure the error of the lowest-indexed
// failing partition is returned.
func orderPartitions(ctx context.Context, g *graph.Graph, opt Options, workers int, parts [][]graph.NodeID) ([][]graph.NodeID, error) {
	ordered := make([][]graph.NodeID, len(parts))
	errs := make([]error, len(parts))
	scratch := make([]*ghostScratch, min(par.Workers(workers), len(parts)))
	err := par.ForChunks(ctx, workers, len(parts), func(i, w int) {
		if scratch[w] == nil {
			scratch[w] = newGhostScratch(g.NumNodes())
		}
		ordered[i], errs[i] = orderOnePartition(ctx, g, opt, parts[i], scratch[w])
	})
	for _, perr := range errs {
		if perr != nil {
			return nil, perr
		}
	}
	if err != nil {
		return nil, err
	}
	return ordered, nil
}

// orderOnePartition builds the partition's ghost-extended subgraph —
// members keep their induced out-edges; every external in-neighbour
// with >= minGhostChildren member children joins as a ghost vertex
// carrying its member edges — orders it with the exact greedy, and
// returns the member sequence in global IDs with ghosts filtered out.
// Ghost IDs are assigned in first-touch scan order (members in
// partition order, in-neighbours in CSR order), so the subgraph and
// hence the result are deterministic.
func orderOnePartition(ctx context.Context, g *graph.Graph, opt Options, members []graph.NodeID, sc *ghostScratch) ([]graph.NodeID, error) {
	nm := len(members)
	for li, v := range members {
		sc.local[v] = int32(li)
	}
	sc.touched = sc.touched[:0]
	for _, v := range members {
		for _, h := range g.InNeighbors(v) {
			if sc.local[h] < 0 {
				if sc.ghostCnt[h] == 0 {
					sc.touched = append(sc.touched, h)
				}
				sc.ghostCnt[h]++
			}
		}
	}
	nextID := int32(nm)
	for _, h := range sc.touched {
		if sc.ghostCnt[h] >= minGhostChildren {
			sc.local[h] = nextID
			nextID++
		}
	}
	edges := sc.edges[:0]
	for _, v := range members {
		lv := graph.NodeID(sc.local[v])
		for _, x := range g.OutNeighbors(v) {
			if lx := sc.local[x]; lx >= 0 && int(lx) < nm {
				edges = append(edges, graph.Edge{From: lv, To: graph.NodeID(lx)})
			}
		}
		for _, h := range g.InNeighbors(v) {
			if gh := sc.local[h]; gh >= int32(nm) {
				edges = append(edges, graph.Edge{From: graph.NodeID(gh), To: lv})
			}
		}
	}
	sc.edges = edges
	sub := graph.FromEdges(int(nextID), edges)
	perm, err := OrderWithCtx(ctx, sub, opt)
	// Reset the scratch before any return so the next partition starts
	// clean even after an error.
	for _, v := range members {
		sc.local[v] = -1
	}
	for _, h := range sc.touched {
		sc.ghostCnt[h] = 0
		sc.local[h] = -1
	}
	if err != nil {
		return nil, err
	}
	out := make([]graph.NodeID, 0, nm)
	for _, lv := range perm.Sequence() {
		if int(lv) < nm {
			out = append(out, members[lv])
		}
	}
	return out, nil
}

// stitchOrder decides the partition concatenation order: a greedy
// chain over inter-partition edge weights. The chain starts at the
// partition holding the greedy's usual start vertex (maximum
// in-degree, lowest ID on ties) and repeatedly appends the unplaced
// partition with the heaviest connection to the chain's tail —
// falling back to the heaviest connection to the whole placed set,
// then to the lowest index — so boundary-crossing edges tend to land
// between adjacent blocks of the final ID space, where they still
// score within the window.
func stitchOrder(g *graph.Graph, parts [][]graph.NodeID) []int {
	k := len(parts)
	if k == 1 {
		return []int{0}
	}
	partOf := make([]int32, g.NumNodes())
	for i, members := range parts {
		for _, v := range members {
			partOf[v] = int32(i)
		}
	}
	// Symmetric inter-partition edge weights; k is small (tens), so a
	// dense k×k matrix is fine.
	weight := make([][]int64, k)
	for i := range weight {
		weight[i] = make([]int64, k)
	}
	outIdx, outAdj := g.OutIndex(), g.OutAdjacency()
	for u := 0; u < g.NumNodes(); u++ {
		pu := partOf[u]
		for _, v := range outAdj[outIdx[u]:outIdx[u+1]] {
			if pv := partOf[v]; pv != pu {
				weight[pu][pv]++
				weight[pv][pu]++
			}
		}
	}
	start := int(partOf[startVertex(g)])
	chain := make([]int, 0, k)
	placed := make([]bool, k)
	toPlaced := make([]int64, k) // connection of each partition to the placed set
	add := func(i int) {
		placed[i] = true
		chain = append(chain, i)
		for j := 0; j < k; j++ {
			toPlaced[j] += weight[i][j]
		}
	}
	add(start)
	for len(chain) < k {
		tail := chain[len(chain)-1]
		best := -1
		for j := 0; j < k; j++ {
			if placed[j] {
				continue
			}
			if best < 0 {
				best = j
				continue
			}
			switch {
			case weight[tail][j] != weight[tail][best]:
				if weight[tail][j] > weight[tail][best] {
					best = j
				}
			case toPlaced[j] != toPlaced[best]:
				if toPlaced[j] > toPlaced[best] {
					best = j
				}
			}
		}
		add(best)
	}
	return chain
}
