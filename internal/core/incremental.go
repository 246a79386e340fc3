package core

import (
	"context"
	"fmt"

	"gorder/internal/graph"
	"gorder/internal/order"
)

// OrderIncremental extends an existing Gorder-style permutation to a
// grown graph without recomputing it from scratch — the adaptation
// the papers' discussion calls for on evolving networks, where the
// full greedy run is too expensive to repeat on every batch of new
// vertices. It is OrderIncrementalCtx with no dirty set and no
// cancellation: pure growth, every previously ordered vertex keeps its
// position.
func OrderIncremental(g *graph.Graph, base order.Permutation, opt Options) (order.Permutation, error) {
	return OrderIncrementalCtx(context.Background(), g, base, nil, opt)
}

// OrderIncrementalCtx repairs an existing Gorder-style permutation
// after the graph changed, without a full recompute.
//
// g must contain the previously ordered vertices as IDs
// 0..len(base)-1 (their edges may have changed) plus any number of
// new vertices appended after them. dirty lists old vertices whose
// neighbourhoods changed enough that their placement should be
// reconsidered — typically the endpoints of inserted and deleted
// edges. Vertices neither new nor dirty keep their relative order
// from base (compacted over the holes the dirty vertices leave); the
// dirty and new vertices are then re-placed greedily after them, each
// chosen to maximise the windowed score S against the last w placed
// vertices — the same objective and bookkeeping as the full
// algorithm, restricted to the re-placement set. Because dirty
// vertices are re-scored on the *current* graph, the repair tolerates
// edge deletions, not just appended suffixes.
//
// The re-placement set is ordered exactly as the full greedy would
// order it given the frozen prefix, so quality degrades only as much
// as the frozen prefix is stale; monitor F(pi) and re-run OrderWith
// when churn accumulates.
//
// Malformed input — a base that is not a valid permutation, covers
// more vertices than g has, or a dirty vertex out of range — returns
// an error instead of panicking, so a service can feed it client
// mutation batches directly. Cancellation via ctx returns ctx.Err()
// with a nil permutation, like OrderWithCtx.
func OrderIncrementalCtx(ctx context.Context, g *graph.Graph, base order.Permutation, dirty []graph.NodeID, opt Options) (order.Permutation, error) {
	n := g.NumNodes()
	k := len(base)
	if k > n {
		return nil, fmt.Errorf("core: base permutation covers %d vertices but graph has %d", k, n)
	}
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid base permutation: %w", err)
	}
	for _, d := range dirty {
		if int(d) < 0 || int(d) >= n {
			return nil, fmt.Errorf("core: dirty vertex %d out of range [0, %d)", d, n)
		}
	}
	if k == 0 {
		return OrderWithCtx(ctx, g, opt)
	}
	// The re-placement set R: dirty old vertices plus every new vertex.
	// mark[v] for old vertices only; new vertices are implicit.
	mark := make([]bool, k)
	for _, d := range dirty {
		if int(d) < k {
			mark[d] = true
		}
	}

	// seq starts as the compacted clean prefix: base order with the
	// dirty vertices' slots squeezed out. The greedy re-places R after
	// it, breaking ties by ascending vertex ID.
	seq := make([]graph.NodeID, 0, n)
	for _, v := range base.Sequence() {
		if !mark[v] {
			seq = append(seq, v)
		}
	}
	if len(seq) == n {
		return order.FromSequence(seq), ctx.Err()
	}
	return orderFrom(ctx, g, opt, seq)
}
