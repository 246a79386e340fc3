package query

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
	"gorder/internal/registry"
)

// randomBatch draws an edit batch against g: 0–3 appended vertices,
// insertions among old and new vertices, deletions of existing edges,
// and one delete that probably misses.
func randomBatch(rng *gen.RNG, g *graph.Graph) (addNodes int, add, del []graph.Edge) {
	n := g.NumNodes()
	addNodes = rng.Intn(4)
	n2 := n + addNodes
	for i := 0; i < 12; i++ {
		add = append(add, graph.Edge{From: graph.NodeID(rng.Intn(n2)), To: graph.NodeID(rng.Intn(n2))})
	}
	for v := n; v < n2; v++ {
		add = append(add, graph.Edge{From: graph.NodeID(v), To: graph.NodeID(rng.Intn(n))})
	}
	for i := 0; i < 8; i++ {
		u := graph.NodeID(rng.Intn(n))
		if nb := g.OutNeighbors(u); len(nb) > 0 {
			del = append(del, graph.Edge{From: u, To: nb[rng.Intn(len(nb))]})
		}
	}
	del = append(del, graph.Edge{From: graph.NodeID(rng.Intn(n)), To: graph.NodeID(rng.Intn(n))})
	return addNodes, add, del
}

// extendPerm keeps every old vertex where base put it and scatters the
// appended vertices over [n, n2): the shape of a carried-forward
// ordering (core.OrderIncremental).
func extendPerm(rng *gen.RNG, base order.Permutation, n2 int) order.Permutation {
	n := len(base)
	perm := slices.Clone(base)
	for _, p := range rng.Perm(n2 - n) {
		perm = append(perm, graph.NodeID(n)+p)
	}
	return perm
}

func binaryBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCarryOrderingMatchesRelabel is the carry's correctness property:
// across generators and random batches with deletions and appended
// vertices, the relabeled graph carried forward edit after edit is,
// byte for byte and in both directions, the graph Relabel builds.
func TestCarryOrderingMatchesRelabel(t *testing.T) {
	gens := []struct {
		name string
		make func(seed uint64) *graph.Graph
	}{
		{"ba", func(s uint64) *graph.Graph { return gen.BarabasiAlbert(400, 3, s) }},
		{"web", func(s uint64) *graph.Graph { return gen.Web(500, gen.DefaultWeb, s) }},
		{"rmat", func(s uint64) *graph.Graph { return gen.RMAT(9, 8, gen.DefaultRMAT, s) }},
	}
	for _, gc := range gens {
		for seed := uint64(1); seed <= 5; seed++ {
			rng := gen.NewRNG(seed)
			g := gc.make(seed)
			perm := order.Permutation(rng.Perm(g.NumNodes()))
			ex := New(Config{Source: newFakeSource(), Store: openTestStore(t)})
			ex.graphs.put(graphKey("v0", "gorder", "k"), &orderedGraph{g: g.Relabel(perm), perm: perm}, 0)
			for step := 1; step <= 4; step++ {
				where := fmt.Sprintf("%s seed %d step %d", gc.name, seed, step)
				addNodes, add, del := randomBatch(rng, g)
				gNew, _, err := graph.ApplyEdits(g, addNodes, add, del)
				if err != nil {
					t.Fatal(err)
				}
				permNew := extendPerm(rng, perm, gNew.NumNodes())
				oldD, newD := fmt.Sprintf("v%d", step-1), fmt.Sprintf("v%d", step)
				if !ex.CarryOrdering(oldD, newD, "gorder", "k", gNew, permNew, add, del) {
					t.Fatalf("%s: carry refused an extension-shaped permutation", where)
				}
				if _, ok := ex.graphs.get(graphKey(oldD, "gorder", "k")); ok {
					t.Fatalf("%s: old tip's relabeling still cached", where)
				}
				v, ok := ex.graphs.get(graphKey(newD, "gorder", "k"))
				if !ok {
					t.Fatalf("%s: carried relabeling not cached", where)
				}
				got, want := v.(*orderedGraph), gNew.Relabel(permNew)
				if !bytes.Equal(binaryBytes(t, got.g), binaryBytes(t, want)) ||
					!slices.Equal(got.g.InIndex(), want.InIndex()) ||
					!slices.Equal(got.g.InAdjacency(), want.InAdjacency()) {
					t.Fatalf("%s: carried graph differs from Relabel", where)
				}
				g, perm = gNew, permNew
			}
			if ex.RelabelCarries() != 4 || ex.RelabelBuilds() != 0 {
				t.Fatalf("%s seed %d: carries=%d builds=%d, want 4/0",
					gc.name, seed, ex.RelabelCarries(), ex.RelabelBuilds())
			}
		}
	}
}

// A permutation that moves an old vertex breaks the carry's invariant:
// nothing is carried, and the old tip's entry is dropped anyway.
func TestCarryOrderingRefusesMovedVertex(t *testing.T) {
	g := gen.BarabasiAlbert(100, 3, 2)
	perm := order.Identity(100)
	ex := New(Config{Source: newFakeSource(), Store: openTestStore(t)})
	ex.graphs.put(graphKey("v0", "gorder", "k"), &orderedGraph{g: g, perm: perm}, 0)
	add := []graph.Edge{{From: 100, To: 0}}
	gNew, _, err := graph.ApplyEdits(g, 1, add, nil)
	if err != nil {
		t.Fatal(err)
	}
	moved := order.Identity(101)
	moved[0], moved[1] = 1, 0
	if ex.CarryOrdering("v0", "v1", "gorder", "k", gNew, moved, add, nil) {
		t.Fatal("carried under a permutation that moves old vertices")
	}
	for _, d := range []string{"v0", "v1"} {
		if _, ok := ex.graphs.get(graphKey(d, "gorder", "k")); ok {
			t.Fatalf("relabeling of %s cached after a refused carry", d)
		}
	}
	// With nothing cached for the old tip there is nothing to carry.
	if ex.CarryOrdering("v0", "v1", "gorder", "k", gNew, order.Identity(101), add, nil) {
		t.Fatal("carried a relabeling that was never cached")
	}
}

// TestConcurrentMissesRelabelOnce: queries that miss the relabeled-graph
// cache on the same ordering at the same time share one Relabel.
func TestConcurrentMissesRelabelOnce(t *testing.T) {
	g := gen.Web(30000, gen.DefaultWeb, 3)
	ex, _ := execOver(t, Config{}, g)
	start := make(chan struct{})
	errs := make([]*Error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := i * 101
			<-start
			_, errs[i] = ex.Run(context.Background(),
				Request{Graph: "web", Kernel: "BFS", Source: &src, Order: "gorder"})
		}(i)
	}
	close(start)
	wg.Wait()
	for i, qerr := range errs {
		if qerr != nil {
			t.Fatalf("query %d: %+v", i, qerr)
		}
	}
	if ex.RelabelBuilds() != 1 {
		t.Fatalf("8 concurrent first queries built %d relabelings, want 1", ex.RelabelBuilds())
	}
}

// TestHubMapOneEntryPerLineage: an edit that moves a lineage tip drops
// the superseded digest's cached hub source (DropHub, as the daemon
// calls it on every tip move), whether or not the relabeled graph was
// carried. After K edits on two lineages, each
// edit followed by a hub-source query on the tip, the executor holds
// one hub entry per lineage, and each answer matches the tip's oracle.
func TestHubMapOneEntryPerLineage(t *testing.T) {
	const edits = 6
	src := newFakeSource()
	ex := New(Config{Source: src, Store: openTestStore(t)})
	for li, name := range []string{"carried", "uncached"} {
		rng := gen.NewRNG(uint64(li + 1))
		g := gen.BarabasiAlbert(300, 3, uint64(li+1))
		perm := order.Permutation(rng.Perm(g.NumNodes()))
		digest := func(v int) string { return fmt.Sprintf("%s-v%d", name, v) }
		src.add(name, digest(0), g)
		if li == 0 {
			ex.graphs.put(graphKey(digest(0), "gorder", "k"), &orderedGraph{g: g.Relabel(perm), perm: perm}, 0)
		}
		for v := 1; v <= edits; v++ {
			addNodes, add, del := randomBatch(rng, g)
			gNew, _, err := graph.ApplyEdits(g, addNodes, add, del)
			if err != nil {
				t.Fatal(err)
			}
			permNew := extendPerm(rng, perm, gNew.NumNodes())
			src.add(name, digest(v), gNew)
			if carried := ex.CarryOrdering(digest(v-1), digest(v), "gorder", "k", gNew, permNew, add, del); carried != (li == 0) {
				t.Fatalf("%s v%d: carried = %v", name, v, carried)
			}
			ex.DropHub(digest(v - 1))
			resp, qerr := ex.Run(context.Background(), Request{Graph: name, Kernel: "BFS", Order: "natural"})
			if qerr != nil {
				t.Fatalf("%s v%d: %+v", name, v, qerr)
			}
			want := directResult(t, gNew, "BFS", registry.KernelParams{SPSource: int(registry.HubSource(gNew))})
			if resp.Graph != digest(v) || resp.Summary["reached"] != want.Summary["reached"] {
				t.Fatalf("%s v%d: served %s reached %v, want %s reached %v",
					name, v, resp.Graph, resp.Summary["reached"], digest(v), want.Summary["reached"])
			}
			g, perm = gNew, permNew
		}
	}
	if n := ex.HubCacheEntries(); n != 2 {
		t.Fatalf("hub map holds %d entries after %d edits on 2 lineages, want 2", n, edits)
	}
}
