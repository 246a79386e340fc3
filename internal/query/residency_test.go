package query

import (
	"context"
	"runtime"
	"testing"

	"gorder/internal/gen"
	"gorder/internal/registry"
)

// TestTipResidencyRelabelEvictsNatural: over the store as its graph
// source (the daemon's wiring), the first query that relabels a tip
// drops the tip's natural CSR from store residency and records its hub
// source. The relabeled copy is then the only resident form: a BFS
// without a source finds the hub without reloading the natural graph,
// and a natural-order query reloads it once and re-admits it.
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
	if st.Resident("d1") || st.ResidentBytes() != 0 || st.Evictions() != 1 {
		t.Fatalf("after the relabel: resident=%v bytes=%d evictions=%d, want false/0/1",
			st.Resident("d1"), st.ResidentBytes(), st.Evictions())
	}
	og := &orderedGraph{g: g, perm: reversePerm(g.NumNodes())}
	if got := ex.GraphCacheBytes(); got != og.memBytes() {
		t.Fatalf("graph cache holds %d bytes, want one relabeled graph's %d", got, og.memBytes())
	}
	if ex.RelabelBuilds() != 1 || ex.HubCacheEntries() != 1 {
		t.Fatalf("builds=%d hub entries=%d, want 1/1", ex.RelabelBuilds(), ex.HubCacheEntries())
	}

	bfs(Request{}, directResult(t, g, "BFS", registry.KernelParams{SPSource: -1}))
	if st.Reloads() != 0 {
		t.Fatalf("a hub-source BFS reloaded the natural graph %d times", st.Reloads())
	}

	for i := 0; i < 2; i++ {
		src := 30 + i
		bfs(Request{Source: &src, Order: "natural"}, directResult(t, g, "BFS", registry.KernelParams{SPSource: src}))
	}
	if st.Reloads() != 1 || !st.Resident("d1") {
		t.Fatalf("natural-order queries: reloads=%d resident=%v, want one reload that re-admits the tip",
			st.Reloads(), st.Resident("d1"))
	}
	if ex.RelabelBuilds() != 1 {
		t.Fatalf("relabel builds = %d, want the cached one reused", ex.RelabelBuilds())
	}
}

// TestTipResidencyEvictionCollects: the query whose relabel build
// evicts the natural tip collects once before it returns, so the
// collector's target drops with the evicted graph; a query served from
// the cached relabeling, or one that builds nothing, collects nothing.
func TestTipResidencyEvictionCollects(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 8)
	st := openTestStore(t)
	if err := st.PutGraph("d1", "web", g, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.PutOrder("d1", "gorder", "abcd", reversePerm(g.NumNodes())); err != nil {
		t.Fatal(err)
	}
	ex := New(Config{Source: st, Store: st})
	forced := func() uint32 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.NumForcedGC
	}
	for i, want := range []uint32{1, 0, 0} {
		src := 5 + i
		req := Request{Graph: "web", Kernel: "BFS", Source: &src, Targets: []int{0, 399}}
		if i == 2 {
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
	if st.Evictions() != 1 || ex.RelabelBuilds() != 1 {
		t.Fatalf("evictions=%d builds=%d, want 1/1", st.Evictions(), ex.RelabelBuilds())
	}
}
