package order

import "gorder/internal/graph"

// ScoreDelta returns Score(gNew, p, w) - Score(gOld, pOld, w) without
// rescoring either graph, where gNew was derived from gOld by the
// given edge edits (plus any number of appended vertices) and p
// extends the old permutation pOld = p[:gOld.NumNodes()]: every old
// vertex must hold the position it had under pOld, with the new
// vertices occupying the trailing positions. That is exactly the shape
// core.OrderIncrementalCtx produces with a nil dirty set, so a quality
// monitor can maintain F(pi) across mutation batches in time
// proportional to the batch, not the graph.
//
// Only window pairs whose score can have changed are rescored: a pair
// (a, b) is affected only if S_s or S_n changed, which requires the
// in-neighbourhood or incident edges of a or b to have changed — and
// every changed edge (x, u) alters only in(u), out(x), and the shared
// in-neighbour x itself. Marking both endpoints of every edit plus all
// appended vertices therefore covers every affected pair with at least
// one marked endpoint. Edits that were no-ops (adds of present edges,
// deletes of absent ones) may be passed freely; their pairs rescore to
// a zero delta.
//
// A nil p means both graphs are already laid out in position order,
// vertex v at position v — as an edit applied to a graph relabeled by
// the ordering leaves them — with the edits in that ID space. The score
// is label-invariant, so the delta is the one the natural graphs, edits
// and p give.
func ScoreDelta(gOld, gNew *graph.Graph, p Permutation, w int, added, removed []graph.Edge) int64 {
	nOld, nNew := gOld.NumNodes(), gNew.NumNodes()
	if (p != nil && len(p) != nNew) || w <= 0 {
		return 0
	}
	mark := make([]bool, nNew)
	for v := nOld; v < nNew; v++ {
		mark[v] = true
	}
	for _, e := range append(append([]graph.Edge(nil), added...), removed...) {
		if int(e.From) < nNew && int(e.To) < nNew {
			mark[e.From], mark[e.To] = true, true
		}
	}
	var seq []graph.NodeID
	if p != nil {
		seq = p.Sequence()
	}
	var delta int64
	for d := 0; d < nNew; d++ {
		if !mark[d] {
			continue
		}
		i := d
		if p != nil {
			i = int(p[d])
		}
		lo, hi := i-w, i+w
		if lo < 0 {
			lo = 0
		}
		if hi > nNew-1 {
			hi = nNew - 1
		}
		for j := lo; j <= hi; j++ {
			if j == i {
				continue
			}
			other := graph.NodeID(j)
			if p != nil {
				other = seq[j]
			}
			// Pairs with two marked endpoints are visited twice; keep
			// the visit from the lower position.
			if mark[other] && j < i {
				continue
			}
			delta += PairScore(gNew, graph.NodeID(d), other)
			if d < nOld && int(other) < nOld {
				delta -= PairScore(gOld, graph.NodeID(d), other)
			}
		}
	}
	return delta
}
