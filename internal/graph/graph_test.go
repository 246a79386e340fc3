package graph

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// diamond returns the 4-vertex test graph 0->1, 0->2, 1->3, 2->3, 3->0.
func diamond() *Graph {
	return FromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0}})
}

func randomGraph(rng *rand.Rand, n, m int) *Graph {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
	}
	return FromEdges(n, edges)
}

func randomPerm(rng *rand.Rand, n int) []NodeID {
	p := make([]NodeID, n)
	for i := range p {
		p[i] = NodeID(i)
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func TestFromEdgesBasic(t *testing.T) {
	g := diamond()
	if g.NumNodes() != 4 || g.NumEdges() != 5 {
		t.Fatalf("n=%d m=%d, want 4, 5", g.NumNodes(), g.NumEdges())
	}
	wantOut := map[NodeID][]NodeID{0: {1, 2}, 1: {3}, 2: {3}, 3: {0}}
	for u, want := range wantOut {
		got := g.OutNeighbors(u)
		if len(got) != len(want) {
			t.Fatalf("out(%d) = %v, want %v", u, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("out(%d) = %v, want %v", u, got, want)
			}
		}
	}
	wantIn := map[NodeID][]NodeID{0: {3}, 1: {0}, 2: {0}, 3: {1, 2}}
	for u, want := range wantIn {
		got := g.InNeighbors(u)
		if len(got) != len(want) {
			t.Fatalf("in(%d) = %v, want %v", u, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("in(%d) = %v, want %v", u, got, want)
			}
		}
	}
}

func TestDegrees(t *testing.T) {
	g := diamond()
	if g.OutDegree(0) != 2 || g.InDegree(0) != 1 || g.Degree(0) != 3 {
		t.Errorf("degrees of 0 = out %d in %d total %d", g.OutDegree(0), g.InDegree(0), g.Degree(0))
	}
	if g.OutDegree(3) != 1 || g.InDegree(3) != 2 {
		t.Errorf("degrees of 3 = out %d in %d", g.OutDegree(3), g.InDegree(3))
	}
}

func TestHasEdge(t *testing.T) {
	g := diamond()
	cases := []struct {
		u, v NodeID
		want bool
	}{
		{0, 1, true}, {0, 2, true}, {0, 3, false}, {1, 0, false},
		{3, 0, true}, {2, 3, true}, {1, 1, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d, %d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestFromEdgesDedup(t *testing.T) {
	g := FromEdgesDedup(3, []Edge{{0, 1}, {0, 1}, {0, 1}, {1, 2}, {2, 2}, {2, 2}})
	if g.NumEdges() != 3 {
		t.Fatalf("deduped m = %d, want 3", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(2, 2) {
		t.Error("dedup dropped a real edge")
	}
	if len(g.OutNeighbors(0)) != 1 {
		t.Errorf("out(0) = %v after dedup", g.OutNeighbors(0))
	}
}

func TestParallelEdgesKept(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1}, {0, 1}})
	if g.NumEdges() != 2 || len(g.OutNeighbors(0)) != 2 {
		t.Error("FromEdges collapsed parallel edges")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := FromEdges(0, nil)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Error("empty graph not empty")
	}
	g2 := FromEdges(5, nil)
	if g2.OutDegree(4) != 0 || g2.InDegree(0) != 0 {
		t.Error("edgeless graph has nonzero degree")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range edge")
		}
	}()
	FromEdges(2, []Edge{{0, 2}})
}

func TestUndirected(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 0}, {1, 2}})
	u := g.Undirected()
	if u.NumEdges() != 4 { // 0-1 both ways, 1-2 both ways
		t.Fatalf("undirected m = %d, want 4", u.NumEdges())
	}
	for _, e := range []Edge{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		if !u.HasEdge(e.From, e.To) {
			t.Errorf("undirected missing (%d,%d)", e.From, e.To)
		}
	}
}

func TestCloneAndEqual(t *testing.T) {
	g := diamond()
	cp := g.Clone()
	if !g.Equal(cp) {
		t.Fatal("clone not equal to original")
	}
	other := FromEdges(4, []Edge{{0, 1}})
	if g.Equal(other) {
		t.Fatal("distinct graphs reported equal")
	}
}

func TestEdgesEarlyStop(t *testing.T) {
	g := diamond()
	count := 0
	g.Edges(func(u, v NodeID) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("visited %d edges, want 3", count)
	}
}

func TestRelabelIdentity(t *testing.T) {
	g := diamond()
	id := []NodeID{0, 1, 2, 3}
	if !g.Relabel(id).Equal(g) {
		t.Error("identity relabel changed the graph")
	}
}

func TestRelabelSwap(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1}})
	h := g.Relabel([]NodeID{1, 0})
	if !h.HasEdge(1, 0) || h.HasEdge(0, 1) {
		t.Error("swap relabel did not move the edge")
	}
}

func TestRelabelRejectsNonPermutation(t *testing.T) {
	g := diamond()
	for _, bad := range [][]NodeID{
		{0, 1, 2},    // wrong length
		{0, 1, 2, 2}, // repeat
		{0, 1, 2, 4}, // out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Relabel(%v) did not panic", bad)
				}
			}()
			g.Relabel(bad)
		}()
	}
}

// Relabeling preserves edge count and the degree multiset, and the
// in/out CSR views always describe the same edge set.
func TestQuickRelabelInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		g := randomGraph(rng, n, rng.Intn(4*n))
		perm := randomPerm(rng, n)
		h := g.Relabel(perm)
		if h.NumEdges() != g.NumEdges() || h.NumNodes() != g.NumNodes() {
			return false
		}
		// Degree multiset preserved under the permutation mapping.
		for u := 0; u < n; u++ {
			if g.OutDegree(NodeID(u)) != h.OutDegree(perm[u]) ||
				g.InDegree(NodeID(u)) != h.InDegree(perm[u]) {
				return false
			}
		}
		// Every original edge exists translated.
		ok := true
		g.Edges(func(u, v NodeID) bool {
			if !h.HasEdge(perm[u], perm[v]) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// In-adjacency is exactly the transpose of out-adjacency.
func TestQuickInOutConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(5*n))
		var outEdges, inEdges []Edge
		g.Edges(func(u, v NodeID) bool {
			outEdges = append(outEdges, Edge{u, v})
			return true
		})
		for v := 0; v < n; v++ {
			for _, u := range g.InNeighbors(NodeID(v)) {
				inEdges = append(inEdges, Edge{u, NodeID(v)})
			}
		}
		if len(outEdges) != len(inEdges) {
			return false
		}
		cmpEdge := func(a, b Edge) int {
			if a.From != b.From {
				return cmp.Compare(a.From, b.From)
			}
			return cmp.Compare(a.To, b.To)
		}
		slices.SortFunc(outEdges, cmpEdge)
		slices.SortFunc(inEdges, cmpEdge)
		for i := range outEdges {
			if outEdges[i] != inEdges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Neighbour lists are always sorted ascending (lexicographic visit
// order, as the paper's traversals require).
func TestQuickSortedAdjacency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(6*n))
		for u := 0; u < n; u++ {
			adj := g.OutNeighbors(NodeID(u))
			for i := 1; i < len(adj); i++ {
				if adj[i-1] > adj[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestComputeStats(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {0, 2}, {1, 1}, {2, 0}})
	s := ComputeStats(g)
	if s.Nodes != 5 || s.Edges != 4 {
		t.Errorf("stats n=%d m=%d", s.Nodes, s.Edges)
	}
	if s.MaxOutDegree != 2 || s.SelfLoops != 1 {
		t.Errorf("stats max_out=%d loops=%d", s.MaxOutDegree, s.SelfLoops)
	}
	if s.Isolated != 2 { // vertices 3 and 4
		t.Errorf("isolated = %d, want 2", s.Isolated)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}
