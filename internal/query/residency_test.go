package query

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/memstat"
	"gorder/internal/order"
	"gorder/internal/registry"
	"gorder/internal/store"
)

// TestTipResidencyRelabelEvictsNatural: over the store as its graph
// source (the daemon's wiring), the first query that relabels a tip
// drops the tip's natural CSR from store residency and records its hub
// source, but does not cache the relabeling: a tip queried once holds
// no memory. The second query reloads the blob once, relabels and
// caches the copy, which is then the only resident form: a BFS without
// a source finds the hub without reloading the natural graph, and a
// natural-order query reloads it once and re-admits it.
func TestTipResidencyRelabelEvictsNatural(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 8)
	st := openTestStore(t)
	if err := st.PutGraph("d1", "web", g, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.PutOrder("d1", "gorder", "abcd", reversePerm(g.NumNodes())); err != nil {
		t.Fatal(err)
	}
	ex := New(Config{Source: st, Store: st})
	ctx := context.Background()
	bfs := func(req Request, want registry.KernelResult) {
		t.Helper()
		req.Graph, req.Kernel, req.Targets = "web", "BFS", []int{0, 7, 199, 399}
		resp, qerr := ex.Run(ctx, req)
		if qerr != nil {
			t.Fatal(qerr)
		}
		for _, v := range resp.Values {
			if v.Value != want.Value(v.Node) {
				t.Fatalf("%+v: BFS to %d = %v, oracle %v", req, v.Node, v.Value, want.Value(v.Node))
			}
		}
	}

	src := 17
	bfs(Request{Source: &src}, directResult(t, g, "BFS", registry.KernelParams{SPSource: src}))
	if st.Resident("d1") || st.ResidentBytes() != 0 || st.Evictions() != 1 || ex.GraphCacheBytes() != 0 {
		t.Fatalf("after the first relabel: resident=%v bytes=%d evictions=%d graph cache %d bytes, want false/0/1/0",
			st.Resident("d1"), st.ResidentBytes(), st.Evictions(), ex.GraphCacheBytes())
	}
	if ex.RelabelBuilds() != 1 || ex.HubCacheEntries() != 1 || ex.GraphCacheDeferred() != 1 {
		t.Fatalf("builds=%d hub entries=%d deferred=%d, want 1/1/1",
			ex.RelabelBuilds(), ex.HubCacheEntries(), ex.GraphCacheDeferred())
	}

	src = 18
	bfs(Request{Source: &src}, directResult(t, g, "BFS", registry.KernelParams{SPSource: src}))
	if st.Resident("d1") || st.ResidentBytes() != 0 || st.Evictions() != 2 || st.Reloads() != 1 {
		t.Fatalf("after the second relabel: resident=%v bytes=%d evictions=%d reloads=%d, want false/0/2/1",
			st.Resident("d1"), st.ResidentBytes(), st.Evictions(), st.Reloads())
	}
	og := &orderedGraph{g: g, perm: reversePerm(g.NumNodes())}
	if got := ex.GraphCacheBytes(); got != og.memBytes() {
		t.Fatalf("graph cache holds %d bytes, want one relabeled graph's %d", got, og.memBytes())
	}
	if ex.RelabelBuilds() != 2 || ex.GraphCacheAdmitted() != 1 {
		t.Fatalf("builds=%d admitted=%d, want 2/1", ex.RelabelBuilds(), ex.GraphCacheAdmitted())
	}

	bfs(Request{}, directResult(t, g, "BFS", registry.KernelParams{SPSource: -1}))
	if st.Reloads() != 1 || ex.RelabelBuilds() != 2 {
		t.Fatalf("a hub-source BFS on the cached relabeling: reloads=%d builds=%d, want 1/2",
			st.Reloads(), ex.RelabelBuilds())
	}

	for i := 0; i < 2; i++ {
		src := 30 + i
		bfs(Request{Source: &src, Order: "natural"}, directResult(t, g, "BFS", registry.KernelParams{SPSource: src}))
	}
	if st.Reloads() != 2 || !st.Resident("d1") {
		t.Fatalf("natural-order queries: reloads=%d resident=%v, want one more reload that re-admits the tip",
			st.Reloads(), st.Resident("d1"))
	}
	if ex.RelabelBuilds() != 2 {
		t.Fatalf("relabel builds = %d, want the cached one reused", ex.RelabelBuilds())
	}
}

// TestTipResidencyEvictionCollects: each query whose relabel build
// evicts the natural tip — the first, whose relabeling is not cached,
// and the second, which reloads and caches it — collects once before it
// returns, so the collector's target drops with the evicted graph; a
// query served from the cached relabeling, or one that builds nothing,
// collects nothing.
func TestTipResidencyEvictionCollects(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 8)
	st := openTestStore(t)
	if err := st.PutGraph("d1", "web", g, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.PutOrder("d1", "gorder", "abcd", reversePerm(g.NumNodes())); err != nil {
		t.Fatal(err)
	}
	gc := new(memstat.Collector)
	ex := New(Config{Source: st, Store: st, Collector: gc})
	forced := func() uint32 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.NumForcedGC
	}
	for i, want := range []uint32{1, 1, 0, 0} {
		src := 5 + i
		req := Request{Graph: "web", Kernel: "BFS", Source: &src, Targets: []int{0, 399}}
		if i == 3 {
			req.Order = "natural"
		}
		before := forced()
		if _, qerr := ex.Run(context.Background(), req); qerr != nil {
			t.Fatal(qerr)
		}
		if got := forced() - before; got != want {
			t.Fatalf("query %d ran %d forced collections, want %d", i, got, want)
		}
	}
	if st.Evictions() != 2 || ex.RelabelBuilds() != 2 || gc.Count(memstat.Relabel) != 2 {
		t.Fatalf("evictions=%d builds=%d relabel collections=%d, want 2/2/2",
			st.Evictions(), ex.RelabelBuilds(), gc.Count(memstat.Relabel))
	}
}

// TestTipResidencyQueriedOnceHoldsNothing: a flood of ordered tips,
// each queried once — a BFS or a PR — leaves the relabeled-graph cache,
// the result cache and store residency all empty: every relabeling is
// deferred, every PR materialized but not cached. Every answer matches
// its natural-graph oracle.
func TestTipResidencyQueriedOnceHoldsNothing(t *testing.T) {
	const graphs = 12
	st := openTestStore(t)
	ex := New(Config{Source: st, Store: st})
	for i := 0; i < graphs; i++ {
		g := gen.BarabasiAlbert(300+10*i, 3, uint64(i+1))
		d, name := fmt.Sprintf("d%d", i), fmt.Sprintf("g%d", i)
		if err := st.PutGraph(d, name, g, 1); err != nil {
			t.Fatal(err)
		}
		if err := st.PutOrder(d, "gorder", "k", reversePerm(g.NumNodes())); err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		kernel, src := "BFS", i
		if i%2 == 1 {
			kernel = "PR"
		}
		resp, qerr := ex.Run(context.Background(), Request{Graph: name, Kernel: kernel, Source: &src, Targets: []int{0, n / 2, n - 1}})
		if qerr != nil {
			t.Fatal(qerr)
		}
		if resp.Ordering.Method != "gorder" || resp.CacheHit {
			t.Fatalf("%s %s: served over %+v, cache hit %v", name, kernel, resp.Ordering, resp.CacheHit)
		}
		want := directResult(t, g, kernel, registry.KernelParams{SPSource: src})
		for _, v := range resp.Values {
			// PR sums in another order over the relabeling.
			if wv := want.Value(v.Node); math.Abs(v.Value-wv) > 1e-12*(1+math.Abs(wv)) {
				t.Fatalf("%s %s vertex %d = %v, oracle %v", name, kernel, v.Node, v.Value, wv)
			}
		}
	}
	if b, r, s := ex.GraphCacheBytes(), ex.ResultCacheBytes(), st.ResidentBytes(); b != 0 || r != 0 || s != 0 {
		t.Fatalf("after %d one-query tips: graph cache %d, result cache %d, store resident %d bytes; want 0/0/0",
			graphs, b, r, s)
	}
	if ex.RelabelBuilds() != graphs || ex.GraphCacheDeferred() != graphs || ex.GraphCacheAdmitted() != 0 {
		t.Fatalf("builds=%d deferred=%d admitted=%d, want %d/%d/0",
			ex.RelabelBuilds(), ex.GraphCacheDeferred(), ex.GraphCacheAdmitted(), graphs, graphs)
	}
	if st.Reloads() != 0 || st.ResultCount() != graphs/2 {
		t.Fatalf("reloads=%d materialized results=%d, want 0 and %d", st.Reloads(), st.ResultCount(), graphs/2)
	}
}

// TestTipResidencySeenKeysAdmitOnFirstRebuild: a key that was resident
// has recurred, so its first rebuild is cached — a relabeling an edit
// carried that later left the cache, and one a repair dropped
// (InvalidateOrdering), even after another tip's first sighting took
// its doorkeeper slot — and each rebuilt relabeling answers as the
// natural graph does.
func TestTipResidencySeenKeysAdmitOnFirstRebuild(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 8)
	n := g.NumNodes()
	st := openTestStore(t)
	if err := st.PutGraph("d1", "web", g, 1); err != nil {
		t.Fatal(err)
	}
	perm := reversePerm(n)
	if err := st.PutOrder("d1", "gorder", "k", perm); err != nil {
		t.Fatal(err)
	}
	ex := New(Config{Source: st, Store: st})
	key := graphKey("d1", "gorder", "k")
	bfs := func(name string, g *graph.Graph) {
		t.Helper()
		src := 17
		resp, qerr := ex.Run(context.Background(), Request{Graph: name, Kernel: "BFS", Source: &src, Targets: []int{0, 199, 399}})
		if qerr != nil {
			t.Fatal(qerr)
		}
		want := directResult(t, g, "BFS", registry.KernelParams{SPSource: src})
		for _, v := range resp.Values {
			if v.Value != want.Value(v.Node) {
				t.Fatalf("%s: BFS to %d = %v, oracle %v", name, v.Node, v.Value, want.Value(v.Node))
			}
		}
	}
	check := func(step string, builds, deferred int64) {
		t.Helper()
		bfs("web", g)
		if _, ok := ex.graphs.get(key); !ok || ex.RelabelBuilds() != builds || ex.GraphCacheDeferred() != deferred {
			t.Fatalf("%s: cached=%v builds=%d deferred=%d, want true/%d/%d",
				step, ok, ex.RelabelBuilds(), ex.GraphCacheDeferred(), builds, deferred)
		}
	}

	// Carried: the edit path hands the relabeling over; then it leaves
	// the cache, as an LRU eviction drops it.
	ex.CarryOrdering("d1", "gorder", "k", g.Relabel(perm), perm)
	ex.graphs.remove(key)
	check("rebuild of a carried relabeling", 1, 0)

	// Another tip whose key shares the doorkeeper slot is queried once.
	slot := func(k string) uint64 { return doorHash(k) >> (64 - doorkeeperBits) }
	other := ""
	for i := 0; other == ""; i++ {
		if d := fmt.Sprintf("c%d", i); slot(graphKey(d, "gorder", "k")) == slot(key) {
			other = d
		}
	}
	g2 := gen.BarabasiAlbert(400, 3, 9)
	if err := st.PutGraph(other, "other", g2, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.PutOrder(other, "gorder", "k", reversePerm(n)); err != nil {
		t.Fatal(err)
	}
	bfs("other", g2)

	// Repaired: a new permutation replaces the artifact and the daemon
	// drops the cached relabeling.
	rng := gen.NewRNG(3)
	perm = order.Permutation(rng.Perm(n))
	if err := st.PutOrder("d1", "gorder", "k", perm); err != nil {
		t.Fatal(err)
	}
	ex.InvalidateOrdering("d1", "gorder", "k")
	check("rebuild after a repair", 3, 1)
	v, _ := ex.graphs.get(key)
	if og := v.(*orderedGraph); !slices.Equal(og.perm, perm) {
		t.Fatal("the rebuilt relabeling is not the repaired permutation's")
	}
}

// editingSource is the store as the executor's graph source, except that
// a Stat runs the pending edit, once, after resolving its ref: the query
// keeps the digest it was admitted with while the edit moves the
// lineage's tip past it, as a read that loses the race to an edit does.
type editingSource struct {
	*store.Store
	pending func()
}

func (s *editingSource) Stat(ref string) (string, int, bool) {
	d, n, ok := s.Store.Stat(ref)
	if edit := s.pending; edit != nil {
		s.pending = nil
		edit()
	}
	return d, n, ok
}

// TestStragglerReadSkipsRelabel: a read that resolves a lineage's tip,
// then loses the race to an edit, runs on the natural graph of the
// version it was admitted with rather than relabeling that dead version
// (which nothing would cache), and says so in its provenance; its
// answer is the natural oracle's. A read that names the ordering still
// relabels, and a superseded version's relabeling is not cached.
func TestStragglerReadSkipsRelabel(t *testing.T) {
	g1, g2 := gen.BarabasiAlbert(400, 3, 8), gen.BarabasiAlbert(420, 3, 9)
	st := openTestStore(t)
	if err := st.PutGraph("d1", "web", g1, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.PutOrder("d1", "gorder", "abcd", reversePerm(g1.NumNodes())); err != nil {
		t.Fatal(err)
	}
	src := &editingSource{Store: st}
	ex := New(Config{Source: src, Store: st})
	src.pending = func() {
		if _, err := st.AppendVersion("web", "d2", g2, 1); err != nil {
			t.Error(err)
		}
	}
	run := func(req Request, want OrderingUsed) {
		t.Helper()
		s := 17
		req.Kernel, req.Source, req.Targets = "BFS", &s, []int{0, 7, 199, 399}
		resp, qerr := ex.Run(context.Background(), req)
		if qerr != nil {
			t.Fatal(qerr)
		}
		if resp.Graph != "d1" || resp.Ordering != want {
			t.Fatalf("%+v: served %s over %+v, want d1 over %+v", req, resp.Graph, resp.Ordering, want)
		}
		oracle := directResult(t, g1, "BFS", registry.KernelParams{SPSource: s})
		for _, v := range resp.Values {
			if v.Value != oracle.Value(v.Node) {
				t.Fatalf("%+v: BFS to %d = %v, oracle %v", req, v.Node, v.Value, oracle.Value(v.Node))
			}
		}
	}

	run(Request{Graph: "web"}, OrderingUsed{Method: "natural", Source: "natural"})
	if st.IsTip("d1") || ex.RelabelBuilds() != 0 {
		t.Fatalf("straggler read: d1 tip=%v, %d relabel builds, want false and 0", st.IsTip("d1"), ex.RelabelBuilds())
	}
	run(Request{Graph: "d1", Order: "gorder"}, OrderingUsed{Method: "gorder", Key: "abcd", Source: "explicit"})
	if ex.RelabelBuilds() != 1 || ex.GraphCacheEntries() != 0 {
		t.Fatalf("explicit read of a superseded version: %d builds, %d cached relabelings, want 1 and 0",
			ex.RelabelBuilds(), ex.GraphCacheEntries())
	}
}
