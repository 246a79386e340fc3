package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/query"
	"gorder/internal/registry"
	"gorder/internal/store"
)

// orderedUpload uploads g under name and runs a gorder job on it.
func orderedUpload(t *testing.T, ts *httptest.Server, name string, g *graph.Graph) GraphInfo {
	t.Helper()
	info := postGraph(t, ts, name, edgeListBytes(t, g))
	if st := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: name, Method: "gorder"}).ID); st.State != StateDone {
		t.Fatalf("order job on %s ended %s (%s)", name, st.State, st.Error)
	}
	return info
}

// checkBFS posts a BFS query with targets and checks every returned
// value against the BFS oracle run on the natural graph g from src
// (the hub when src < 0).
func checkBFS(t *testing.T, ts *httptest.Server, g *graph.Graph, req query.Request, src int) *query.Response {
	t.Helper()
	n := g.NumNodes()
	req.Kernel, req.Targets = "BFS", []int{0, 1, n / 2, n - 1}
	if src < 0 {
		src = int(registry.HubSource(g))
		req.Targets = append(req.Targets, src)
	}
	resp := postQuery(t, ts, req, http.StatusOK)
	bfs, _ := registry.LookupKernel("BFS")
	want, err := bfs.Query(context.Background(), g, registry.KernelParams{SPSource: src}, new(registry.QueryScratch))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Values) != len(req.Targets) {
		t.Fatalf("%+v: %d values, want %d", req, len(resp.Values), len(req.Targets))
	}
	for _, v := range resp.Values {
		if v.Value != want.Value(v.Node) {
			t.Fatalf("%+v: BFS from %d to %d = %v, oracle %v", req, src, v.Node, v.Value, want.Value(v.Node))
		}
	}
	return resp
}

// TestTipResidencyHeldOnce: the first query that relabels an ordered
// tip drops its natural CSR from store residency and keeps no
// relabeling, so the tip holds no memory; its blob stays on disk. The
// second query reloads the blob once and caches the relabeling, and the
// tip is then held once, as the query tier's relabeled copy.
func TestTipResidencyHeldOnce(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir(), 0)
	g := gen.BarabasiAlbert(2000, 4, 21)
	orderedUpload(t, ts, "soc", g)
	if snap := metricsSnapshot(t, ts); snap["store_resident_bytes"] != g.MemoryBytes() {
		t.Fatalf("before any query: %d bytes resident, want the natural tip's %d",
			snap["store_resident_bytes"], g.MemoryBytes())
	}
	for i, src := range []int{3, 900, 1999} {
		src := src
		if resp := checkBFS(t, ts, g, query.Request{Graph: "soc", Source: &src}, src); resp.Ordering.Method != "gorder" {
			t.Fatalf("served over %+v, want gorder", resp.Ordering)
		}
		if i > 0 {
			continue
		}
		snap := metricsSnapshot(t, ts)
		if snap["store_resident_bytes"] != 0 || snap["query_graph_cache_bytes"] != 0 || snap["query_graph_cache_deferred_total"] != 1 {
			t.Fatalf("after one query: store_resident_bytes=%d query_graph_cache_bytes=%d deferred=%d, want 0, 0 and 1",
				snap["store_resident_bytes"], snap["query_graph_cache_bytes"], snap["query_graph_cache_deferred_total"])
		}
	}
	snap := metricsSnapshot(t, ts)
	if snap["store_resident_bytes"] != 0 || snap["store_evictions_total"] != 2 {
		t.Fatalf("after the relabels: store_resident_bytes=%d store_evictions_total=%d, want 0 and 2",
			snap["store_resident_bytes"], snap["store_evictions_total"])
	}
	// The relabeled copy is one graph plus its permutation.
	if b := snap["query_graph_cache_bytes"]; b < g.MemoryBytes() || b >= 2*g.MemoryBytes() {
		t.Fatalf("query_graph_cache_bytes = %d, want one relabeled graph (natural CSR is %d)", b, g.MemoryBytes())
	}
	if snap["query_relabel_builds_total"] != 2 || snap["store_graph_reloads_total"] != 1 || snap["query_graph_cache_admitted_total"] != 1 {
		t.Fatalf("builds=%d reloads=%d admitted=%d, want 2, 1 and 1", snap["query_relabel_builds_total"],
			snap["store_graph_reloads_total"], snap["query_graph_cache_admitted_total"])
	}
	if info := getGraphInfo(t, ts, "soc", http.StatusOK); info.Resident || !info.OnDisk {
		t.Fatalf("GET /graphs/soc: resident=%v on_disk=%v, want false/true", info.Resident, info.OnDisk)
	}
}

// TestTipResidencyHubWithoutReload: the relabel build records the
// tip's hub source from the natural graph it already holds, so a BFS
// without a source after the natural CSR left memory — once a second
// query has cached the relabeling — finds the natural-graph hub
// without reloading it.
func TestTipResidencyHubWithoutReload(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir(), 0)
	g := gen.BarabasiAlbert(2000, 4, 22)
	orderedUpload(t, ts, "soc", g)
	postQuery(t, ts, query.Request{Graph: "soc", Kernel: "PR"}, http.StatusOK)
	src := 5
	checkBFS(t, ts, g, query.Request{Graph: "soc", Source: &src}, src)
	before := metricsSnapshot(t, ts)
	if before["store_resident_bytes"] != 0 || before["query_graph_cache_entries"] != 1 {
		t.Fatalf("PR and BFS queries left %d natural bytes resident and %d relabelings cached, want 0 and 1",
			before["store_resident_bytes"], before["query_graph_cache_entries"])
	}
	resp := checkBFS(t, ts, g, query.Request{Graph: "soc"}, -1)
	if v := resp.Values[len(resp.Values)-1]; v.Value != 0 {
		t.Fatalf("BFS without a source: distance %v to the natural hub %d, want 0 (served from it)", v.Value, v.Node)
	}
	after := metricsSnapshot(t, ts)
	if after["store_graph_reloads_total"] != before["store_graph_reloads_total"] {
		t.Fatalf("hub-source BFS reloaded the natural graph: reloads %d -> %d",
			before["store_graph_reloads_total"], after["store_graph_reloads_total"])
	}
}

// TestTipResidencyNaturalReloadsOnce: what still needs the natural form
// after a relabel — an order job with another method, or an
// order=natural query — reloads it from disk once and answers
// correctly; the reload re-admits the tip, so a repeat does not reload.
func TestTipResidencyNaturalReloadsOnce(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir(), 0)
	ga, gb := gen.BarabasiAlbert(1500, 4, 23), gen.BarabasiAlbert(1600, 4, 24)
	for name, g := range map[string]*graph.Graph{"a": ga, "b": gb} {
		orderedUpload(t, ts, name, g)
		src := 5
		checkBFS(t, ts, g, query.Request{Graph: name, Source: &src}, src)
	}
	reloads := func() int64 { return metricsSnapshot(t, ts)["store_graph_reloads_total"] }
	if r := reloads(); r != 0 {
		t.Fatalf("%d reloads before anything asked for a natural graph", r)
	}

	for i, src := range []int{11, 12} {
		src := src
		resp := checkBFS(t, ts, ga, query.Request{Graph: "a", Source: &src, Order: "natural"}, src)
		if resp.Ordering.Method != "natural" {
			t.Fatalf("order=natural query served over %+v", resp.Ordering)
		}
		if r := reloads(); r != 1 {
			t.Fatalf("order=natural query %d: %d reloads, want 1", i+1, r)
		}
	}

	for i := 0; i < 2; i++ {
		if st := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "b", Method: "rcm"}).ID); st.State != StateDone {
			t.Fatalf("rcm job %d on b ended %s (%s)", i+1, st.State, st.Error)
		}
		if r := reloads(); r != 2 {
			t.Fatalf("rcm job %d: %d reloads, want 2 (one for a, one for b)", i+1, r)
		}
	}
	src := 13
	if resp := checkBFS(t, ts, gb, query.Request{Graph: "b", Source: &src, Order: "rcm"}, src); resp.Ordering.Method != "rcm" {
		t.Fatalf("order=rcm query served over %+v", resp.Ordering)
	}
	if r := reloads(); r != 2 {
		t.Fatalf("rcm relabel after the job: %d reloads, want 2", r)
	}
}

// TestTipResidencyBuildRacesEdit: relabel builds race edits of the same
// lineage. An unreachable decay threshold makes every edit enqueue a
// repair, whose replaced artifact makes the next query relabel again,
// so builds keep landing beside edits. Under -race the interleaving
// stays clean; afterwards at most the tip's natural CSR is resident,
// the hub cache holds at most the tip (builds record a hub only while
// their digest is still the tip), and the tip answers as its
// natural-graph oracle.
func TestTipResidencyBuildRacesEdit(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pool:           PoolConfig{Workers: 1, QueueDepth: 64},
		DecayThreshold: 1.5,
	})
	g := gen.BarabasiAlbert(1500, 4, 25)
	orderedUpload(t, ts, "soc", g)
	n0 := g.NumNodes()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Explicit sources only: the hub cache then fills from
				// relabel builds alone, which is what the count below checks.
				src := (i * 37) % n0
				req := query.Request{Graph: "soc", Kernel: "BFS", Source: &src}
				if w == 1 {
					req.Kernel = "SP"
					if i%2 == 1 {
						req = query.Request{Graph: "soc", Kernel: "PR"}
					}
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query %+v during edits: status %d", req, resp.StatusCode)
					return
				}
			}
		}(w)
	}

	rng := gen.NewRNG(9)
	mirror := g
	var repairs []string
	for i := 0; i < 12; i++ {
		req := randomEdit(rng, mirror)
		resp := postEdges(t, ts, "soc", req, http.StatusOK)
		mirror = applyMirror(t, mirror, req)
		if resp.RepairJob != "" {
			repairs = append(repairs, resp.RepairJob)
		}
	}
	close(stop)
	wg.Wait()
	for _, id := range repairs {
		if st := waitJob(t, ts, id); st.State != StateDone {
			t.Fatalf("repair %s ended %s (%s)", id, st.State, st.Error)
		}
	}
	if len(repairs) == 0 {
		t.Fatal("no edit enqueued a repair under an unreachable decay threshold")
	}

	snap := metricsSnapshot(t, ts)
	if b := snap["store_resident_bytes"]; b != 0 && b != mirror.MemoryBytes() {
		t.Fatalf("store_resident_bytes = %d, want 0 or the tip's %d", b, mirror.MemoryBytes())
	}
	if h := snap["query_hub_cache_entries"]; h > 1 {
		t.Fatalf("hub cache holds %d entries for one lineage", h)
	}
	for _, src := range []int{0, n0 / 3, mirror.NumNodes() - 1} {
		src := src
		checkBFS(t, ts, mirror, query.Request{Graph: "soc", Source: &src}, src)
	}
	checkBFS(t, ts, mirror, query.Request{Graph: "soc"}, -1)
	if t.Failed() {
		return
	}
	if info := getGraphInfo(t, ts, "soc", http.StatusOK); info.Version != 13 {
		t.Fatalf("tip is v%d, want v13 after 12 edits", info.Version)
	}
}

// TestTipResidencyEditAppliesOnce: on an ordered tip whose relabeling
// a second query cached, each edge-only edit applies its batch once — one CSR build,
// on the relabeling — and patches the natural blob on disk, so no
// natural bytes become resident and nothing reloads; the version is
// still named by the upload digest of the natural graph's binary
// encoding, and a BFS without a source finds the natural hub from the
// carried relabeling alone.
func TestTipResidencyEditAppliesOnce(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts := newTestServer(t, Config{
		Pool:              PoolConfig{Workers: 1, QueueDepth: 8},
		Store:             st,
		DisableAutoRepair: true, // a repair reloads the natural tip
	})
	g := gen.BarabasiAlbert(2000, 4, 31)
	orderedUpload(t, ts, "soc", g)
	checkBFS(t, ts, g, query.Request{Graph: "soc"}, -1)
	checkBFS(t, ts, g, query.Request{Graph: "soc"}, -1) // reloads once, caches the relabeling
	rng := gen.NewRNG(17)
	mirror := g
	for i := 1; i <= 12; i++ {
		n := mirror.NumNodes()
		var req editRequest
		for len(req.Add) < 3 {
			req.Add = append(req.Add, edgeSpec{From: rng.Intn(n), To: rng.Intn(n)})
		}
		req.Add = append(req.Add, req.Add[0]) // a duplicate request
		u := rng.Intn(n)
		if nb := mirror.OutNeighbors(graph.NodeID(u)); len(nb) > 0 {
			req.Del = append(req.Del, edgeSpec{From: u, To: int(nb[0])})
		}
		before := metricsSnapshot(t, ts)
		resp := postEdges(t, ts, "soc", req, http.StatusOK)
		after := metricsSnapshot(t, ts)
		mirror = applyMirror(t, mirror, req)

		if b := after["graph_csr_builds_total"] - before["graph_csr_builds_total"]; b != 1 {
			t.Fatalf("edit %d built %d CSRs, want 1", i, b)
		}
		if after["store_resident_bytes"] != 0 || after["store_graph_reloads_total"] != 1 {
			t.Fatalf("edit %d: store_resident_bytes=%d store_graph_reloads_total=%d, want 0 and 1",
				i, after["store_resident_bytes"], after["store_graph_reloads_total"])
		}
		var buf bytes.Buffer
		if err := mirror.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		h := store.NewDigest()
		h.Write(buf.Bytes())
		if resp.Graph.ID != store.DigestSum(h) || resp.Graph.Bytes != int64(buf.Len()) {
			t.Fatalf("edit %d: version %s of %d bytes, the natural encoding is %s of %d",
				i, resp.Graph.ID, resp.Graph.Bytes, store.DigestSum(h), buf.Len())
		}
		if resp.OrdersExtended != 1 || resp.Graph.Nodes != n || resp.Graph.Edges != mirror.NumEdges() {
			t.Fatalf("edit %d: %+v", i, resp)
		}

		res := checkBFS(t, ts, mirror, query.Request{Graph: "soc"}, -1)
		if res.Ordering.Method != "gorder" || res.Graph != resp.Graph.ID {
			t.Fatalf("edit %d: hub BFS served %s over %+v", i, res.Graph, res.Ordering)
		}
		snap := metricsSnapshot(t, ts)
		if snap["store_graph_reloads_total"] != 1 || snap["query_relabel_builds_total"] != 2 {
			t.Fatalf("edit %d: hub BFS reloads=%d relabel builds=%d, want 1 and 2",
				i, snap["store_graph_reloads_total"], snap["query_relabel_builds_total"])
		}
	}
}
