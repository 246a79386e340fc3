package core

import (
	"gorder/internal/graph"
	"gorder/internal/order"
)

// orderReference is the seed implementation of the Gorder greedy,
// kept verbatim as the parity oracle: one interface-dispatched queue
// operation per ±1 score bump, per-call closures and all. q must hold
// items 0..n-1 at key 0. Over a UnitHeap, the optimized production
// loop (batched deltas over the concrete *UnitHeap) must reproduce its
// permutation bit for bit — TestOrderOptimizedMatchesReference holds
// the two together. Over a lazyHeap it is the queue ablation.
func orderReference(g *graph.Graph, opt Options, q maxQueue) order.Permutation {
	n := g.NumNodes()
	if n == 0 {
		return order.Permutation{}
	}
	w := opt.Window
	if w <= 0 {
		w = DefaultWindow
	}

	seq := make([]graph.NodeID, 0, n)
	// Start from the vertex with maximum in-degree (the most shared
	// data structure in the graph), lowest ID on ties.
	start := graph.NodeID(0)
	for v := 1; v < n; v++ {
		if g.InDegree(graph.NodeID(v)) > g.InDegree(start) {
			start = graph.NodeID(v)
		}
	}
	q.Delete(int(start))
	seq = append(seq, start)

	// apply adds (delta=+1) or removes (delta=-1) vertex v's score
	// contributions to every candidate still in the queue:
	//   - out-neighbours and in-neighbours of v gain Sn,
	//   - out-neighbours of v's in-neighbours gain Ss (one shared
	//     in-neighbour each).
	apply := func(v graph.NodeID, delta int) {
		bump := func(u graph.NodeID) {
			if int(u) < n && q.Contains(int(u)) {
				if delta > 0 {
					q.Inc(int(u))
				} else {
					q.Dec(int(u))
				}
			}
		}
		for _, u := range g.OutNeighbors(v) {
			bump(u)
		}
		for _, x := range g.InNeighbors(v) {
			bump(x)
			if opt.HubThreshold > 0 && g.OutDegree(x) > opt.HubThreshold {
				continue
			}
			for _, u := range g.OutNeighbors(x) {
				if u != v {
					bump(u)
				}
			}
		}
	}

	for i := 1; i < n; i++ {
		apply(seq[i-1], +1)
		if i-1 >= w {
			apply(seq[i-1-w], -1)
		}
		v, _, ok := q.ExtractMax()
		if !ok {
			break
		}
		seq = append(seq, graph.NodeID(v))
	}
	return order.FromSequence(seq)
}
