package order

import (
	"math/rand"
	"testing"

	"gorder/internal/graph"
)

// evolve applies random edits to g, appending extra vertices, and
// returns the new graph plus the add/del lists.
func evolveForDelta(rng *rand.Rand, g *graph.Graph, extra int) (*graph.Graph, []graph.Edge, []graph.Edge) {
	n := g.NumNodes()
	var del []graph.Edge
	g.Edges(func(u, v graph.NodeID) bool {
		if rng.Intn(8) == 0 {
			del = append(del, graph.Edge{From: u, To: v})
		}
		return true
	})
	var add []graph.Edge
	n2 := n + extra
	for i := 0; i < 3+rng.Intn(3*n2); i++ {
		add = append(add, graph.Edge{
			From: graph.NodeID(rng.Intn(n2)),
			To:   graph.NodeID(rng.Intn(n2)),
		})
	}
	// Make sure every new vertex has at least one edge.
	for v := n; v < n2; v++ {
		add = append(add, graph.Edge{From: graph.NodeID(v), To: graph.NodeID(rng.Intn(n))})
	}
	g2, _, err := graph.ApplyEdits(g, extra, add, del)
	if err != nil {
		panic(err)
	}
	return g2, add, del
}

// extendPerm appends the new vertices to pOld's sequence in random
// order — the position-preserving extension shape ScoreDelta requires.
func extendPerm(rng *rand.Rand, pOld Permutation, nNew int) Permutation {
	seq := pOld.Sequence()
	tail := make([]graph.NodeID, 0, nNew-len(pOld))
	for v := len(pOld); v < nNew; v++ {
		tail = append(tail, graph.NodeID(v))
	}
	rng.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	return FromSequence(append(seq, tail...))
}

func TestScoreDeltaMatchesFullRescore(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		edges := make([]graph.Edge, rng.Intn(6*n))
		for i := range edges {
			edges[i] = graph.Edge{From: graph.NodeID(rng.Intn(n)), To: graph.NodeID(rng.Intn(n))}
		}
		g := graph.FromEdgesDedup(n, edges)
		pOld := randPerm(rng, n)
		extra := rng.Intn(6)
		g2, add, del := evolveForDelta(rng, g, extra)
		p := extendPerm(rng, pOld, g2.NumNodes())
		w := 1 + rng.Intn(7)
		got := ScoreDelta(g, g2, p, w, add, del)
		want := Score(g2, p, w) - Score(g, pOld, w)
		if got != want {
			t.Fatalf("trial %d (n=%d extra=%d w=%d): ScoreDelta=%d, full rescore diff=%d",
				trial, n, extra, w, got, want)
		}
	}
}

func TestScoreDeltaNoEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := graph.FromEdgesDedup(10, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}})
	p := randPerm(rng, 10)
	if d := ScoreDelta(g, g, p, 5, nil, nil); d != 0 {
		t.Fatalf("no-op delta = %d", d)
	}
}

func TestScoreDeltaNoOpEditsTolerated(t *testing.T) {
	// Adds of present edges and deletes of absent ones must contribute
	// zero, so callers can pass raw client batches.
	g := graph.FromEdgesDedup(6, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	rng := rand.New(rand.NewSource(11))
	p := randPerm(rng, 6)
	phantom := []graph.Edge{{From: 0, To: 1}} // already present "add"
	missing := []graph.Edge{{From: 3, To: 4}} // absent "delete"
	if d := ScoreDelta(g, g, p, 3, phantom, missing); d != 0 {
		t.Fatalf("no-op edits produced delta %d", d)
	}
}

// ScoreDelta and PackingFactor over graphs already relabeled by the
// ordering (nil p, edits mapped into the relabeled IDs) equal the
// natural-ID answers: the edit path scores the relabeled copy it holds.
func TestScoreDeltaRelabeledMatchesNatural(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	mapped := func(es []graph.Edge, p Permutation) []graph.Edge {
		out := make([]graph.Edge, len(es))
		for i, e := range es {
			out[i] = graph.Edge{From: p[e.From], To: p[e.To]}
		}
		return out
	}
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(60)
		edges := make([]graph.Edge, rng.Intn(6*n))
		for i := range edges {
			edges[i] = graph.Edge{From: graph.NodeID(rng.Intn(n)), To: graph.NodeID(rng.Intn(n))}
		}
		g := graph.FromEdgesDedup(n, edges)
		pOld := randPerm(rng, n)
		g2, add, del := evolveForDelta(rng, g, rng.Intn(6))
		p := extendPerm(rng, pOld, g2.NumNodes())
		w := 1 + rng.Intn(7)
		want := ScoreDelta(g, g2, p, w, add, del)
		if got := ScoreDelta(g.Relabel(pOld), g2.Relabel(p), nil, w, mapped(add, p), mapped(del, p)); got != want {
			t.Fatalf("trial %d: relabeled ScoreDelta %d, natural %d (full %d)", trial, got, want, Score(g2, p, w)-Score(g, pOld, w))
		}
		if got, want := PackingFactor(g2.Relabel(p), nil), PackingFactor(g2, p); got != want {
			t.Fatalf("trial %d: relabeled PackingFactor %v, natural %v", trial, got, want)
		}
	}
}
