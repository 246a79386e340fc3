package order

import (
	"context"
	"math"

	"gorder/internal/graph"
)

// The quality functions different orderings optimise. These are
// evaluation tools: MinLA/MinLogA minimise LinearCost/LogCost, RCM
// targets Bandwidth, and Gorder maximises Score.

// LinearCost returns the MinLA energy sum over edges of |pi(u)-pi(v)|.
// Self-loops contribute zero.
func LinearCost(g *graph.Graph, p Permutation) float64 {
	total := 0.0
	g.Edges(func(u, v graph.NodeID) bool {
		total += math.Abs(float64(p[u]) - float64(p[v]))
		return true
	})
	return total
}

// LogCost returns the MinLogA energy sum over edges of
// log(|pi(u)-pi(v)|). Self-loops and duplicate positions are skipped
// (log 0 is undefined; self-loops are the only way distance can be 0).
func LogCost(g *graph.Graph, p Permutation) float64 {
	total := 0.0
	g.Edges(func(u, v graph.NodeID) bool {
		if d := math.Abs(float64(p[u]) - float64(p[v])); d > 0 {
			total += math.Log(d)
		}
		return true
	})
	return total
}

// Bandwidth returns max over edges of |pi(u)-pi(v)|, the quantity RCM
// is designed to reduce.
func Bandwidth(g *graph.Graph, p Permutation) int64 {
	var bw int64
	g.Edges(func(u, v graph.NodeID) bool {
		d := int64(p[u]) - int64(p[v])
		if d < 0 {
			d = -d
		}
		if d > bw {
			bw = d
		}
		return true
	})
	return bw
}

// Score returns the Gorder objective F(pi) with window w:
//
//	F(pi) = sum over pairs with 0 < pi(u)-pi(v) <= w of S(u, v)
//	S(u, v) = Ss(u, v) + Sn(u, v)
//
// where Sn counts edges between u and v (0..2) and Ss counts their
// common in-neighbours. This is an independent O(n·w·d) evaluation
// used to validate and benchmark the greedy algorithm in
// internal/core, not the algorithm's own bookkeeping.
func Score(g *graph.Graph, p Permutation, w int) int64 {
	f, _ := ScoreCtx(context.Background(), g, p, w)
	return f
}

// scoreCancelInterval is how many positions ScoreCtx scores between
// context checks. A position costs up to w pair scores, so at the
// widest served window (1024) a deadline still interrupts within a
// few milliseconds on graphs of moderate degree.
const scoreCancelInterval = 64

// ScoreCtx is Score with cooperative cancellation: it checks ctx every
// scoreCancelInterval positions and returns ctx.Err() (with a zero
// score) once the context is done.
func ScoreCtx(ctx context.Context, g *graph.Graph, p Permutation, w int) (int64, error) {
	seq := p.Sequence()
	var total int64
	for i := range seq {
		if i%scoreCancelInterval == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		for j := max(0, i-w); j < i; j++ {
			total += PairScore(g, seq[i], seq[j])
		}
	}
	return total, nil
}

// CacheBlockEntries is the number of vertex entries per cache block
// assumed by PackingFactor: a 64-byte line holding 4-byte vertex data.
const CacheBlockEntries = 16

// PackingFactor returns the hot-vertex packing metric of Faldu et
// al. (arXiv 2001.08448, §III): the average number of hot vertices per
// cache block that contains at least one hot vertex, where a vertex is
// hot when its in-degree exceeds the graph average and a block is
// CacheBlockEntries consecutive new IDs. A perfect ordering packs hot
// vertices densely (factor → CacheBlockEntries); a random ordering
// scatters them (factor → 1), forcing the working set across many more
// lines. Returns 0 when the graph has no hot vertices. A nil p means g
// is already laid out in position order (relabeled by the ordering).
func PackingFactor(g *graph.Graph, p Permutation) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	avg := float64(g.NumEdges()) / float64(n)
	hotBlocks := 0
	hotTotal := 0
	numBlocks := (n + CacheBlockEntries - 1) / CacheBlockEntries
	counts := make([]int32, numBlocks)
	for v := 0; v < n; v++ {
		if float64(g.InDegree(graph.NodeID(v))) > avg {
			b := v / CacheBlockEntries
			if p != nil {
				b = int(p[v]) / CacheBlockEntries
			}
			if counts[b] == 0 {
				hotBlocks++
			}
			counts[b]++
			hotTotal++
		}
	}
	if hotBlocks == 0 {
		return 0
	}
	return float64(hotTotal) / float64(hotBlocks)
}

// PairScore returns S(u, v) = Ss(u, v) + Sn(u, v) for a single vertex
// pair.
func PairScore(g *graph.Graph, u, v graph.NodeID) int64 {
	var s int64
	if g.HasEdge(u, v) {
		s++
	}
	if g.HasEdge(v, u) {
		s++
	}
	return s + commonInNeighbors(g, u, v)
}

// commonInNeighbors counts |N_in(u) ∩ N_in(v)| by merging the two
// sorted in-neighbour lists.
func commonInNeighbors(g *graph.Graph, u, v graph.NodeID) int64 {
	a, b := g.InNeighbors(u), g.InNeighbors(v)
	var count int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}
