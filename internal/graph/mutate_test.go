package graph

import (
	"math/rand"
	"testing"
)

// oracle: rebuild from the edited edge list with FromEdgesDedup.
func applyEditsOracle(g *Graph, addNodes int, add, del []Edge) *Graph {
	gone := make(map[Edge]bool, len(del))
	for _, e := range del {
		gone[e] = true
	}
	var edges []Edge
	g.Edges(func(u, v NodeID) bool {
		if !gone[Edge{u, v}] {
			edges = append(edges, Edge{u, v})
		}
		return true
	})
	edges = append(edges, add...)
	return FromEdgesDedup(g.NumNodes()+addNodes, edges)
}

func randMutGraph(rng *rand.Rand, n, m int) *Graph {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
	}
	return FromEdgesDedup(n, edges)
}

func TestApplyEditsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		g := randMutGraph(rng, n, rng.Intn(5*n))
		addNodes := rng.Intn(8)
		n2 := n + addNodes
		var add, del []Edge
		for i := 0; i < rng.Intn(12); i++ {
			add = append(add, Edge{NodeID(rng.Intn(n2)), NodeID(rng.Intn(n2))})
		}
		// Mix of real and phantom deletes.
		g.Edges(func(u, v NodeID) bool {
			if rng.Intn(10) == 0 {
				del = append(del, Edge{u, v})
			}
			return true
		})
		for i := 0; i < rng.Intn(4); i++ {
			del = append(del, Edge{NodeID(rng.Intn(n2)), NodeID(rng.Intn(n2))})
		}
		got, st, err := ApplyEdits(g, addNodes, add, del)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := applyEditsOracle(g, addNodes, add, del)
		if !got.Equal(want) {
			t.Fatalf("trial %d: CSR mismatch (n=%d addNodes=%d add=%v del=%v)", trial, n, addNodes, add, del)
		}
		if int64(st.Added-st.Deleted) != got.NumEdges()-g.NumEdges() {
			t.Fatalf("trial %d: stats %+v inconsistent with edge counts %d→%d",
				trial, st, g.NumEdges(), got.NumEdges())
		}
		// In-CSR consistent with out-CSR.
		for u := 0; u < got.NumNodes(); u++ {
			for _, v := range got.OutNeighbors(NodeID(u)) {
				found := false
				for _, x := range got.InNeighbors(v) {
					if x == NodeID(u) {
						found = true
					}
				}
				if !found {
					t.Fatalf("trial %d: edge (%d,%d) missing from in-CSR", trial, u, v)
				}
			}
		}
	}
}

func TestApplyEditsDeleteThenReadd(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	g2, st, err := ApplyEdits(g, 0, []Edge{{0, 1}}, []Edge{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !g2.HasEdge(0, 1) {
		t.Fatal("delete+re-add in one batch should leave the edge present")
	}
	if st.Added != 1 || st.Deleted != 1 {
		t.Fatalf("stats %+v, want Added=1 Deleted=1", st)
	}
}

func TestApplyEditsIdempotentRequests(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}})
	g2, st, err := ApplyEdits(g, 0,
		[]Edge{{0, 1}, {0, 1}, {1, 2}}, // present, duplicate, new
		[]Edge{{2, 0}, {2, 0}})         // absent, duplicate
	if err != nil {
		t.Fatal(err)
	}
	if st.Added != 1 || st.SkippedAdds != 1 || st.Deleted != 0 || st.MissedDels != 1 {
		t.Fatalf("stats %+v", st)
	}
	if !g2.HasEdge(0, 1) || !g2.HasEdge(1, 2) {
		t.Fatal("edges missing after idempotent batch")
	}
}

func TestApplyEditsNewVertices(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1}})
	g2, st, err := ApplyEdits(g, 2, []Edge{{2, 0}, {3, 2}, {1, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 4 || st.Added != 3 {
		t.Fatalf("n=%d stats %+v", g2.NumNodes(), st)
	}
	if !g2.HasEdge(2, 0) || !g2.HasEdge(3, 2) || !g2.HasEdge(1, 3) {
		t.Fatal("edges to new vertices missing")
	}
	if g.NumNodes() != 2 {
		t.Fatal("source graph mutated")
	}
}

func TestApplyEditsErrors(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1}})
	if _, _, err := ApplyEdits(g, -1, nil, nil); err == nil {
		t.Error("negative addNodes accepted")
	}
	if _, _, err := ApplyEdits(g, 1, []Edge{{0, 3}}, nil); err == nil {
		t.Error("out-of-range add accepted")
	}
	if _, _, err := ApplyEdits(g, 0, nil, []Edge{{5, 0}}); err == nil {
		t.Error("out-of-range delete accepted")
	}
}

// An addNodes past the uint32 vertex-ID space is an error before any
// allocation, not a makeslice panic or a multi-gigabyte offsets array.
func TestApplyEditsHugeAddNodes(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1}})
	for _, addNodes := range []int{1 << 62, 1<<32 - 1} {
		if _, _, err := ApplyEdits(g, addNodes, nil, nil); err == nil {
			t.Errorf("addNodes %d accepted on a 2-vertex graph", addNodes)
		}
	}
}
