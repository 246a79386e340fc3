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

// mapEdges maps edges through perm, as the edit path maps a batch into
// a relabeling's ID space.
func mapEdges(es []graph.Edge, perm order.Permutation) []graph.Edge {
	out := make([]graph.Edge, len(es))
	for i, e := range es {
		out[i] = graph.Edge{From: perm[e.From], To: perm[e.To]}
	}
	return out
}

// carryEdit is one edit as the daemon applies it to a relabeled tip:
// take the old tip's relabeling, apply the batch mapped through the
// extended permutation, and carry the result to the new digest. It
// reports false when no relabeling of oldD under base is cached.
func carryEdit(t *testing.T, ex *Executor, oldD, newD string, base, perm order.Permutation, addNodes int, add, del []graph.Edge) (graph.EditStats, bool) {
	t.Helper()
	rel, ok := ex.Relabeling(oldD, "gorder", "k", base)
	if !ok {
		return graph.EditStats{}, false
	}
	g, st, err := graph.ApplyEdits(rel, addNodes, mapEdges(add, perm), mapEdges(del, perm))
	if err != nil {
		t.Fatal(err)
	}
	ex.CarryOrdering(newD, "gorder", "k", g, perm)
	ex.InvalidateOrdering(oldD, "gorder", "k")
	return st, true
}

// TestCarryOrderingMatchesRelabel is the carry's correctness property:
// across generators and random batches with deletions and appended
// vertices, the relabeled graph carried forward edit after edit — the
// batch applied once, to the relabeling, mapped through the extended
// permutation — is, byte for byte and in both directions, the graph
// Relabel builds from the natural edit; the edit's stats are the
// natural edit's; and the hub recorded from degrees and permutation is
// the natural graph's.
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
				gNew, wantSt, err := graph.ApplyEdits(g, addNodes, add, del)
				if err != nil {
					t.Fatal(err)
				}
				permNew := extendPerm(rng, perm, gNew.NumNodes())
				oldD, newD := fmt.Sprintf("v%d", step-1), fmt.Sprintf("v%d", step)
				st, ok := carryEdit(t, ex, oldD, newD, perm, permNew, addNodes, add, del)
				if !ok {
					t.Fatalf("%s: no relabeling of %s to edit", where, oldD)
				}
				if st != wantSt {
					t.Fatalf("%s: relabeled edit stats %+v, natural %+v", where, st, wantSt)
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
				if hub, want := ex.hubs[newD], int(registry.HubSource(gNew)); hub != want {
					t.Fatalf("%s: carried hub %d, natural graph's hub %d", where, hub, want)
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

// A permutation that moves an old vertex is not the one the cached
// relabeling was built with, so the relabeling is not handed to an edit
// under it — nor is one that was never cached.
func TestCarryOrderingRefusesMovedVertex(t *testing.T) {
	g := gen.BarabasiAlbert(100, 3, 2)
	perm := order.Identity(100)
	ex := New(Config{Source: newFakeSource(), Store: openTestStore(t)})
	ex.graphs.put(graphKey("v0", "gorder", "k"), &orderedGraph{g: g, perm: perm}, 0)
	moved := order.Identity(100)
	moved[0], moved[1] = 1, 0
	if _, ok := ex.Relabeling("v0", "gorder", "k", moved); ok {
		t.Fatal("handed out a relabeling under a permutation that moves old vertices")
	}
	if _, ok := ex.Relabeling("v0", "gorder", "k", order.Identity(101)); ok {
		t.Fatal("handed out a relabeling under a permutation of another length")
	}
	if _, ok := ex.Relabeling("v1", "gorder", "k", perm); ok {
		t.Fatal("handed out a relabeling that was never cached")
	}
	if rel, ok := ex.Relabeling("v0", "gorder", "k", order.Identity(100)); !ok || rel != g {
		t.Fatal("refused the relabeling under the permutation it was built with")
	}
}

// TestConcurrentMissesRelabelOnce: queries that miss the relabeled-graph
// cache on the same ordering at the same time share one Relabel. A
// first query builds the relabeling without caching it, so the
// concurrent ones are its second sighting: their shared build caches
// it, and any query arriving after that build is served from the cache.
func TestConcurrentMissesRelabelOnce(t *testing.T) {
	g := gen.Web(30000, gen.DefaultWeb, 3)
	ex, _ := execOver(t, Config{}, g)
	first := 0
	if _, qerr := ex.Run(context.Background(), Request{Graph: "web", Kernel: "BFS", Source: &first, Order: "gorder"}); qerr != nil {
		t.Fatal(qerr)
	}
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
	if ex.RelabelBuilds() != 2 || ex.GraphCacheAdmitted() != 1 {
		t.Fatalf("a first query and 8 concurrent second ones built %d relabelings (%d cached), want 2 (1)",
			ex.RelabelBuilds(), ex.GraphCacheAdmitted())
	}
}

// TestHubMapOneEntryPerLineage: an edit that moves a lineage tip drops
// the superseded digest's cached hub source (DropHub, as the daemon
// calls it on every tip move), whether or not the relabeled graph was
// carried — a carry records the new tip's hub. After K edits on two lineages, each
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
			if _, carried := carryEdit(t, ex, digest(v-1), digest(v), perm, permNew, addNodes, add, del); carried != (li == 0) {
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
