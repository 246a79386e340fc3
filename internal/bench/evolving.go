package bench

import (
	"context"
	"fmt"

	"gorder/internal/core"
	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
)

// evolvingBatchEdits builds one deterministic growth batch against g:
// `grow` new vertices, each following fanout spread-out existing
// vertices, plus `dels` deletions of existing edges (an arithmetic
// stride through the edge list, so deletions touch many regions of
// the ordering).
func evolvingBatchEdits(g *graph.Graph, grow, fanout, dels int, salt uint64) (add, del []graph.Edge) {
	n := g.NumNodes()
	for v := n; v < n+grow; v++ {
		for j := 0; j < fanout; j++ {
			t := (uint64(v)*2654435761 + uint64(j)*40503 + salt) % uint64(n)
			add = append(add, graph.Edge{From: graph.NodeID(v), To: graph.NodeID(t)})
		}
	}
	if dels > 0 {
		m := g.NumEdges()
		stride := m/int64(dels) + 1
		var i, taken int64
		g.Edges(func(u, v graph.NodeID) bool {
			if i%stride == 0 && taken < int64(dels) {
				del = append(del, graph.Edge{From: u, To: v})
				taken++
			}
			i++
			return taken < int64(dels)
		})
	}
	return add, del
}

// Evolving measures the mutable-graph extension end-to-end: a Gorder
// baseline on a social graph, ten edit batches (growth plus scattered
// deletions) each absorbed by a pure incremental extension, the
// monitor's ScoreDelta-tracked decay against ground truth, and finally
// a suffix repair vs a full recompute on the grown graph. The repair
// is the daemon's policy verbatim: re-place every vertex added since
// the baseline jointly, leave the clean prefix alone.
func (r *Runner) Evolving() Table {
	n := int(50000 * r.Scale)
	if n < 2000 {
		n = 2000
	}
	g0 := gen.BarabasiAlbert(n, 8, 0xEE07)
	w := core.DefaultWindow
	const batches = 10
	grow := n / 100 // 1% growth per batch
	if grow < 20 {
		grow = 20
	}
	dels := grow / 4

	t := Table{
		ID:     "evolving",
		Header: []string{"batch", "nodes", "edges", "extend", "tracked decay", "true decay"},
	}
	baseSecs, perm := timeIt(func() order.Permutation { return core.OrderWith(g0, core.Options{Window: w}) })
	baseF := order.Score(g0, perm, w)
	r.logf("evolving baseline done (%.2fs, F=%d)", baseSecs, baseF)

	// Decay is tracked exactly as the server does: F deltas from
	// ScoreDelta, normalised per edge against the baseline density.
	baseDensity := float64(baseF) / float64(g0.NumEdges())
	curF := baseF
	g := g0
	for b := 1; b <= batches; b++ {
		add, del := evolvingBatchEdits(g, grow, 4, dels, uint64(b)*7919)
		g2, _, err := graph.ApplyEdits(g, grow, add, del)
		if err != nil {
			panic(fmt.Sprintf("bench: evolving batch %d: %v", b, err))
		}
		var p2 order.Permutation
		secs, _ := timeIt(func() order.Permutation {
			q, err := core.OrderIncrementalCtx(context.Background(), g2, perm, nil, core.Options{Window: w})
			if err != nil {
				panic(fmt.Sprintf("bench: evolving extend %d: %v", b, err))
			}
			p2 = q
			return q
		})
		curF += order.ScoreDelta(g, g2, p2, w, add, del)
		g, perm = g2, p2
		tracked := (float64(curF) / float64(g.NumEdges())) / baseDensity
		actual := (float64(order.Score(g, perm, w)) / float64(g.NumEdges())) / baseDensity
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", b), fmt.Sprintf("%d", g.NumNodes()), fmt.Sprintf("%d", g.NumEdges()),
			fmtSecs(secs), fmt.Sprintf("%.3f", tracked), fmt.Sprintf("%.3f", actual),
		})
		r.logf("evolving batch %d: n=%d decay=%.3f (true %.3f, extend %.3fs)",
			b, g.NumNodes(), tracked, actual, secs)
	}

	// Repair: re-place the whole grown suffix jointly against the clean
	// prefix — the daemon's suffix-repair policy.
	dirty := make([]graph.NodeID, 0, g.NumNodes()-n)
	for v := n; v < g.NumNodes(); v++ {
		dirty = append(dirty, graph.NodeID(v))
	}
	repairSecs, repaired := timeIt(func() order.Permutation {
		q, err := core.OrderIncrementalCtx(context.Background(), g, perm[:n], dirty, core.Options{Window: w})
		if err != nil {
			panic(fmt.Sprintf("bench: evolving repair: %v", err))
		}
		return q
	})
	repairF := order.Score(g, repaired, w)
	fullSecs, full := timeIt(func() order.Permutation { return core.OrderWith(g, core.Options{Window: w}) })
	fullF := order.Score(g, full, w)
	retention := float64(repairF) / float64(fullF)
	r.logf("evolving repair %.3fs F=%d vs full %.2fs F=%d (retention %.3f, %.1fx)",
		repairSecs, repairF, fullSecs, fullF, retention, fullSecs/repairSecs)

	t.Title = fmt.Sprintf("Evolving graph: incremental ordering on BA n=%d..%d (window %d)",
		g0.NumNodes(), g.NumNodes(), w)
	t.Notes = []string{
		fmt.Sprintf("suffix repair: %.3fs F=%d; full recompute: %.2fs F=%d — retention %.3f at %.1fx",
			repairSecs, repairF, fullSecs, fullF, retention, fullSecs/repairSecs),
		"tracked decay is the daemon's ScoreDelta monitor; true decay recomputes F from scratch",
	}
	return t
}
