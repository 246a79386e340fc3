package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/query"
	"gorder/internal/registry"
	"gorder/internal/store"
)

// postEdges submits one mutation batch and decodes the response when
// the status matches; on a mismatch it fails the test with the body.
func postEdges(t *testing.T, ts *httptest.Server, name string, req editRequest, wantStatus int) *editResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/graphs/"+name+"/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /graphs/%s/edges: status %d, want %d: %s", name, resp.StatusCode, wantStatus, b)
	}
	if wantStatus != http.StatusOK {
		return nil
	}
	out := decodeJSON[editResponse](t, resp.Body)
	return &out
}

// getLineage fetches GET /graphs/{name}/lineage.
func getLineage(t *testing.T, ts *httptest.Server, name string) (versions []versionView, quality *qualityView) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/graphs/" + name + "/lineage")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET lineage %s: status %d: %s", name, resp.StatusCode, b)
	}
	var out struct {
		Versions []versionView `json:"versions"`
		Quality  *qualityView  `json:"quality"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Versions, out.Quality
}

func getGraphInfo(t *testing.T, ts *httptest.Server, ref string, wantStatus int) GraphInfo {
	t.Helper()
	resp, err := http.Get(ts.URL + "/graphs/" + ref)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /graphs/%s: status %d, want %d: %s", ref, resp.StatusCode, wantStatus, b)
	}
	if wantStatus != http.StatusOK {
		return GraphInfo{}
	}
	return decodeJSON[GraphInfo](t, resp.Body)
}

// growthBatch builds a deterministic mutation batch against the mirror
// graph: extra new vertices each following a spread of existing ones,
// plus the first dels existing edges removed.
func growthBatch(g *graph.Graph, extra, dels int) editRequest {
	n := g.NumNodes()
	req := editRequest{AddNodes: extra}
	for v := n; v < n+extra; v++ {
		for j := 0; j < 3; j++ {
			req.Add = append(req.Add, edgeSpec{From: v, To: (v*31 + j*577) % n})
		}
	}
	g.Edges(func(u, v graph.NodeID) bool {
		if len(req.Del) < dels {
			req.Del = append(req.Del, edgeSpec{From: int(u), To: int(v)})
			return true
		}
		return false
	})
	return req
}

// applyMirror applies req to the local mirror the same way the server
// does, so the test always knows the expected shape of the tip.
func applyMirror(t *testing.T, g *graph.Graph, req editRequest) *graph.Graph {
	t.Helper()
	add := make([]graph.Edge, len(req.Add))
	for i, e := range req.Add {
		add[i] = graph.Edge{From: graph.NodeID(e.From), To: graph.NodeID(e.To)}
	}
	del := make([]graph.Edge, len(req.Del))
	for i, e := range req.Del {
		del[i] = graph.Edge{From: graph.NodeID(e.From), To: graph.NodeID(e.To)}
	}
	g2, _, err := graph.ApplyEdits(g, req.AddNodes, add, del)
	if err != nil {
		t.Fatal(err)
	}
	return g2
}

// TestMutationEndToEnd is the tentpole acceptance flow: upload, order,
// three edit batches with deletions, and queries on the moving tip —
// @latest always reflects the newest version while pinned versions
// keep serving their own.
func TestMutationEndToEnd(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir(), 0)
	g := gen.BarabasiAlbert(500, 4, 7)
	postGraph(t, ts, "soc", edgeListBytes(t, g))

	st := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "soc", Method: "gorder"}).ID)
	if st.State != StateDone {
		t.Fatalf("order job ended %s (%s)", st.State, st.Error)
	}
	if _, q := getLineage(t, ts, "soc"); q == nil || q.Method != "gorder" {
		t.Fatalf("order job did not seed a quality baseline: %+v", q)
	}

	mirror := g
	for i := 1; i <= 3; i++ {
		req := growthBatch(mirror, 20, 5)
		resp := postEdges(t, ts, "soc", req, http.StatusOK)
		mirror = applyMirror(t, mirror, req)
		if resp.Graph.Version != i+1 || resp.Graph.Latest != i+1 {
			t.Fatalf("batch %d: version %d/latest %d, want %d", i, resp.Graph.Version, resp.Graph.Latest, i+1)
		}
		if resp.Graph.Nodes != mirror.NumNodes() || resp.Graph.Edges != mirror.NumEdges() {
			t.Fatalf("batch %d: tip %d/%d nodes/edges, mirror %d/%d",
				i, resp.Graph.Nodes, resp.Graph.Edges, mirror.NumNodes(), mirror.NumEdges())
		}
		if resp.EdgesDeleted == 0 {
			t.Fatalf("batch %d deleted no edges", i)
		}
		if resp.OrdersExtended == 0 {
			t.Fatalf("batch %d extended no ordering artifacts", i)
		}
		if resp.Quality == nil || resp.Quality.Decay <= 0 {
			t.Fatalf("batch %d: quality not tracked: %+v", i, resp.Quality)
		}
	}

	// The bare name and @latest follow the tip; @v1 pins the original.
	tip := getGraphInfo(t, ts, "soc", http.StatusOK)
	if tip.Version != 4 || tip.Latest != 4 || tip.Nodes != 560 {
		t.Fatalf("tip = v%d/%d with %d nodes, want v4/4 with 560", tip.Version, tip.Latest, tip.Nodes)
	}
	if latest := getGraphInfo(t, ts, "soc@latest", http.StatusOK); latest.ID != tip.ID {
		t.Fatalf("soc@latest resolved %s, tip is %s", latest.ID, tip.ID)
	}
	v1 := getGraphInfo(t, ts, "soc@v1", http.StatusOK)
	if v1.Version != 1 || v1.Latest != 4 || v1.Nodes != 500 {
		t.Fatalf("soc@v1 = v%d/%d with %d nodes, want v1/4 with 500", v1.Version, v1.Latest, v1.Nodes)
	}
	getGraphInfo(t, ts, "soc@v9", http.StatusNotFound)
	if vs, _ := getLineage(t, ts, "soc"); len(vs) != 4 {
		t.Fatalf("lineage has %d versions, want 4", len(vs))
	}

	// A query sourced at a vertex that only exists after the mutations
	// succeeds on @latest and is rejected on the pinned first version:
	// the name never serves a stale graph.
	src := 550
	resp := postQuery(t, ts, query.Request{Graph: "soc", Kernel: "BFS", Source: &src}, http.StatusOK)
	if resp.Graph != tip.ID {
		t.Fatalf("query on the name ran against %s, tip is %s", resp.Graph, tip.ID)
	}
	if resp.Ordering.Method != "gorder" {
		t.Fatalf("tip query served by %q ordering, want the carried-forward gorder artifact",
			resp.Ordering.Method)
	}
	postQuery(t, ts, query.Request{Graph: "soc@v1", Kernel: "BFS", Source: &src}, http.StatusBadRequest)
	old := postQuery(t, ts, query.Request{Graph: "soc@v1", Kernel: "NQ"}, http.StatusOK)
	if old.Graph != v1.ID {
		t.Fatalf("pinned query ran against %s, want v1 digest %s", old.Graph, v1.ID)
	}
}

// randomEdit draws an edit batch against g: 0–3 appended vertices,
// insertions among old and new vertices, and two deletions.
func randomEdit(rng *gen.RNG, g *graph.Graph) editRequest {
	n := g.NumNodes()
	req := editRequest{AddNodes: rng.Intn(4)}
	for i := 0; i < 4; i++ {
		req.Add = append(req.Add, edgeSpec{From: rng.Intn(n + req.AddNodes), To: rng.Intn(n)})
	}
	for v := n; v < n+req.AddNodes; v++ {
		req.Add = append(req.Add, edgeSpec{From: rng.Intn(n), To: v})
	}
	for len(req.Del) < 2 {
		u := rng.Intn(n)
		if nb := g.OutNeighbors(graph.NodeID(u)); len(nb) > 0 {
			req.Del = append(req.Del, edgeSpec{From: u, To: int(nb[rng.Intn(len(nb))])})
		}
	}
	return req
}

// TestEditStreamCarriesRelabeling: an edit replaces its lineage's tip
// in memory instead of adding a version, and carries the relabeled
// graph forward, so a read-after-edit stream relabels twice — on the
// first query, and on the second, which caches the relabeling — and
// holds one version, as its relabeling alone: no
// natural bytes stay resident in the store. Every answer matches a BFS
// oracle on the natural graph.
func TestEditStreamCarriesRelabeling(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pool:              PoolConfig{Workers: 1, QueueDepth: 8},
		DisableAutoRepair: true, // a repair replaces the artifact, and so relabels
	})
	g := gen.BarabasiAlbert(2000, 4, 13)
	postGraph(t, ts, "soc", edgeListBytes(t, g))
	if st := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "soc", Method: "gorder"}).ID); st.State != StateDone {
		t.Fatalf("order job ended %s (%s)", st.State, st.Error)
	}
	bfs, _ := registry.LookupKernel("BFS")
	rng := gen.NewRNG(5)
	mirror, tipID := g, ""
	check := func(step int) {
		t.Helper()
		n := mirror.NumNodes()
		src := rng.Intn(n)
		targets := []int{0, n - 1, rng.Intn(n), rng.Intn(n)}
		resp := postQuery(t, ts, query.Request{Graph: "soc", Kernel: "BFS", Source: &src, Targets: targets}, http.StatusOK)
		if resp.Ordering.Method != "gorder" || (tipID != "" && resp.Graph != tipID) {
			t.Fatalf("step %d: served %s over %+v, want tip %s over gorder", step, resp.Graph, resp.Ordering, tipID)
		}
		want, err := bfs.Query(context.Background(), mirror, registry.KernelParams{SPSource: src}, new(registry.QueryScratch))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range resp.Values {
			if v.Value != want.Value(v.Node) {
				t.Fatalf("step %d: BFS from %d to %d = %v, oracle %v", step, src, v.Node, v.Value, want.Value(v.Node))
			}
		}
	}
	check(0)
	check(0)
	builds := metricsSnapshot(t, ts)["query_relabel_builds_total"]
	if builds != 2 {
		t.Fatalf("two queries on the tip built %d relabelings, want 2", builds)
	}
	for i := 1; i <= 30; i++ {
		req := randomEdit(rng, mirror)
		tipID = postEdges(t, ts, "soc", req, http.StatusOK).Graph.ID
		mirror = applyMirror(t, mirror, req)
		check(i)
		snap := metricsSnapshot(t, ts)
		if snap["query_relabel_builds_total"] != builds {
			t.Fatalf("edit %d: relabel builds %d -> %d, want the carried relabeling reused",
				i, builds, snap["query_relabel_builds_total"])
		}
		if snap["store_resident_bytes"] != 0 {
			t.Fatalf("edit %d: %d natural bytes resident, want 0", i, snap["store_resident_bytes"])
		}
		// One version's relabeling: one graph plus its permutation.
		if b := snap["query_graph_cache_bytes"]; b < mirror.MemoryBytes() || b >= 2*mirror.MemoryBytes() {
			t.Fatalf("edit %d: query_graph_cache_bytes = %d, want one version's relabeling (natural CSR is %d)",
				i, b, mirror.MemoryBytes())
		}
	}
	if c := metricsSnapshot(t, ts)["query_relabel_carries_total"]; c != 30 {
		t.Fatalf("query_relabel_carries_total = %d, want 30", c)
	}
}

// TestEditVersionIDMatchesUpload: an edit's version is named like an
// upload of its binary encoding, so uploading those bytes deduplicates
// to the same ID.
func TestEditVersionIDMatchesUpload(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir(), 0)
	g := gen.BarabasiAlbert(300, 3, 2)
	postGraph(t, ts, "soc", edgeListBytes(t, g))
	req := growthBatch(g, 5, 3)
	edited := postEdges(t, ts, "soc", req, http.StatusOK).Graph
	var buf bytes.Buffer
	if err := applyMirror(t, g, req).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	up := postGraph(t, ts, "copy", buf.Bytes())
	h := store.NewDigest()
	h.Write(buf.Bytes())
	if up.ID != edited.ID || up.ID != store.DigestSum(h) {
		t.Fatalf("upload of the edited bytes got ID %s, edit got %s", up.ID, edited.ID)
	}
	if edited.Bytes != int64(buf.Len()) {
		t.Fatalf("edited version records %d bytes, encoding is %d", edited.Bytes, buf.Len())
	}
}

// TestMutationAutoRepair drives the decay monitor: with the threshold
// set above any achievable ratio, the first mutation enqueues a repair
// job, which re-places the suffix and bumps the repair counter without
// touching the baseline.
func TestMutationAutoRepair(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pool:           PoolConfig{Workers: 1, QueueDepth: 8},
		DecayThreshold: 1.5, // unreachable: every mutation counts as decayed
	})

	g := gen.BarabasiAlbert(400, 4, 11)
	postGraph(t, ts, "soc", edgeListBytes(t, g))
	if st := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "soc", Method: "gorder"}).ID); st.State != StateDone {
		t.Fatalf("order job ended %s (%s)", st.State, st.Error)
	}

	resp := postEdges(t, ts, "soc", growthBatch(g, 20, 5), http.StatusOK)
	if resp.RepairJob == "" {
		t.Fatalf("no repair enqueued at decay %.3f under an unreachable threshold", resp.Quality.Decay)
	}
	rst := waitJob(t, ts, resp.RepairJob)
	if rst.State != StateDone {
		t.Fatalf("repair job ended %s (%s)", rst.State, rst.Error)
	}
	if rst.Metrics["repaired_vertices"] != 20 {
		t.Fatalf("repair re-placed %v vertices, want the 20 added since baseline", rst.Metrics["repaired_vertices"])
	}
	if rst.Metrics["decay_after"] < rst.Metrics["decay_before"] {
		t.Fatalf("repair worsened decay: %.3f -> %.3f",
			rst.Metrics["decay_before"], rst.Metrics["decay_after"])
	}
	_, q := getLineage(t, ts, "soc")
	if q == nil || q.Repairs != 1 {
		t.Fatalf("quality after repair = %+v, want repairs == 1", q)
	}
	if q.CleanNodes != 400 {
		t.Fatalf("repair moved the baseline: clean_nodes %d, want 400", q.CleanNodes)
	}
}

// TestLineageSurvivesDaemonRestart reopens the store under a fresh
// server: versions, the carried-forward ordering artifact, and the
// quality record all come back without rerunning any job.
func TestLineageSurvivesDaemonRestart(t *testing.T) {
	dir := t.TempDir()
	run := func(work func(s *Server, ts *httptest.Server)) {
		stq, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Pool: PoolConfig{Workers: 1, QueueDepth: 8}, Store: stq, DisableAutoRepair: true})
		s.Start()
		ts := httptest.NewServer(s.Handler())
		work(s, ts)
		ts.Close()
		s.DrainAndPersist(5*time.Second, "")
		stq.Close()
	}

	g := gen.BarabasiAlbert(300, 4, 3)
	var tipID, v1ID string
	run(func(s *Server, ts *httptest.Server) {
		v1ID = postGraph(t, ts, "soc", edgeListBytes(t, g)).ID
		if st := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "soc", Method: "gorder"}).ID); st.State != StateDone {
			t.Fatalf("order job ended %s (%s)", st.State, st.Error)
		}
		mirror := g
		for i := 0; i < 2; i++ {
			req := growthBatch(mirror, 10, 3)
			tipID = postEdges(t, ts, "soc", req, http.StatusOK).Graph.ID
			mirror = applyMirror(t, mirror, req)
		}
	})

	run(func(s *Server, ts *httptest.Server) {
		tip := getGraphInfo(t, ts, "soc", http.StatusOK)
		if tip.ID != tipID || tip.Version != 3 || tip.Latest != 3 {
			t.Fatalf("restarted tip = %s v%d/%d, want %s v3/3", tip.ID, tip.Version, tip.Latest, tipID)
		}
		if v1 := getGraphInfo(t, ts, "soc@v1", http.StatusOK); v1.ID != v1ID {
			t.Fatalf("restarted soc@v1 = %s, want %s", v1.ID, v1ID)
		}
		vs, q := getLineage(t, ts, "soc")
		if len(vs) != 3 {
			t.Fatalf("restarted lineage has %d versions, want 3", len(vs))
		}
		if q == nil || q.Method != "gorder" {
			t.Fatalf("quality record lost across restart: %+v", q)
		}
		// The tip's extended artifact survived: a fresh query is served
		// over gorder without any new order job.
		resp := postQuery(t, ts, query.Request{Graph: "soc", Kernel: "PR"}, http.StatusOK)
		if resp.Ordering.Method != "gorder" {
			t.Fatalf("restarted query served by %q, want the persisted gorder artifact", resp.Ordering.Method)
		}
	})
}

// TestCorruptTipServesPreviousVersion corrupts the tip's blob on disk:
// the first resolve fails and the store drops it, after which the name
// serves the healed previous version instead of a 404.
func TestCorruptTipServesPreviousVersion(t *testing.T) {
	dir := t.TempDir()
	s, ts := newStoreServer(t, dir, 1) // 1-byte budget: nothing stays resident
	g := gen.BarabasiAlbert(300, 4, 5)
	postGraph(t, ts, "soc", edgeListBytes(t, g))
	tip := postEdges(t, ts, "soc", growthBatch(g, 10, 0), http.StatusOK)

	matches, err := filepath.Glob(filepath.Join(dir, "*", tip.Graph.ID))
	if err != nil || len(matches) != 1 {
		t.Fatalf("locating tip blob %s: %v (%d matches)", tip.Graph.ID, err, len(matches))
	}
	blob, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(matches[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, ok := s.cfg.Store.Resolve("soc"); ok {
		t.Fatal("corrupt tip resolved successfully")
	}
	g2, _, ok := s.cfg.Store.Resolve("soc")
	if !ok {
		t.Fatal("name did not heal to the previous version")
	}
	if g2.NumNodes() != 300 {
		t.Fatalf("healed graph has %d nodes, want the original 300", g2.NumNodes())
	}
	if ti := getGraphInfo(t, ts, "soc", http.StatusOK); ti.Version != 1 || ti.Latest != 1 {
		t.Fatalf("healed lineage reports v%d/%d, want v1/1", ti.Version, ti.Latest)
	}
}

// TestMutationValidation covers the endpoint's failure envelopes.
func TestMutationValidation(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir(), 0)
	postGraph(t, ts, "soc", edgeListBytes(t, gen.BarabasiAlbert(50, 3, 1)))
	postEdges(t, ts, "nope", editRequest{AddNodes: 1}, http.StatusNotFound)
	postEdges(t, ts, "soc@v1", editRequest{AddNodes: 1}, http.StatusBadRequest)
	postEdges(t, ts, "soc", editRequest{}, http.StatusBadRequest)
	postEdges(t, ts, "soc", editRequest{AddNodes: -1}, http.StatusBadRequest)
	postEdges(t, ts, "soc", editRequest{Add: []edgeSpec{{From: -1, To: 2}}}, http.StatusBadRequest)
	postEdges(t, ts, "soc", editRequest{Add: []edgeSpec{{From: 0, To: 5000}}}, http.StatusBadRequest)
	// Past the uint32 ID space: the endpoint must not wrap to vertex 0,
	// and a huge add_nodes must not reach the allocator.
	postEdges(t, ts, "soc", editRequest{Add: []edgeSpec{{From: 1 << 32, To: 1}}}, http.StatusBadRequest)
	postEdges(t, ts, "soc", editRequest{AddNodes: 1 << 62}, http.StatusBadRequest)
	if vs, _ := getLineage(t, ts, "soc"); len(vs) != 1 {
		t.Fatalf("rejected batches moved the lineage: %d versions, want 1", len(vs))
	}

	// Repair jobs validate their lineage at submit time.
	body, _ := json.Marshal(JobRequest{Kind: KindRepair, Graph: "nope"})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("repair of unknown lineage: status %d, want 400", resp.StatusCode)
	}
}

// TestAliasUploadIsLineage: uploading bytes already stored under
// another name makes that name a lineage of its own, right away and not
// only after a restart: name@latest resolves, the name accepts an edit,
// and its version history lists. Editing the alias leaves the hub of
// the shared digest, which still tips the other lineage.
func TestAliasUploadIsLineage(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir(), 0)
	g := gen.BarabasiAlbert(200, 3, 4)
	a := postGraph(t, ts, "a", edgeListBytes(t, g))
	b := postGraph(t, ts, "b", edgeListBytes(t, g))
	postQuery(t, ts, query.Request{Graph: "a", Kernel: "BFS"}, http.StatusOK) // records a's hub
	if latest := getGraphInfo(t, ts, "b@latest", http.StatusOK); latest.ID != a.ID || latest.Version != 1 {
		t.Fatalf("b@latest = %s v%d, want %s v1", latest.ID, latest.Version, a.ID)
	}
	if b.ID != a.ID || b.Lineage != "b" || b.Version != 1 {
		t.Fatalf("alias upload = %+v, want %s as b@v1", b, a.ID)
	}
	edited := postEdges(t, ts, "b", growthBatch(g, 5, 2), http.StatusOK)
	if edited.Graph.Lineage != "b" || edited.Graph.Version != 2 {
		t.Fatalf("edit on the alias = %+v, want b@v2", edited.Graph)
	}
	if vs, _ := getLineage(t, ts, "b"); len(vs) != 2 || vs[0].Digest != a.ID || vs[1].Digest != edited.Graph.ID {
		t.Fatalf("b's lineage = %+v, want [%s %s]", vs, a.ID, edited.Graph.ID)
	}
	if vs, _ := getLineage(t, ts, "a"); len(vs) != 1 || vs[0].Digest != a.ID {
		t.Fatalf("editing b moved a: %+v", vs)
	}
	if n := metricsSnapshot(t, ts)["query_hub_cache_entries"]; n != 1 {
		t.Fatalf("query_hub_cache_entries = %d after editing b, want a's hub kept", n)
	}
}

// TestUploadRejectsVersionRefName: a name that parses as a version
// reference could never be addressed (GET /graphs/g@v1 reads v1 of
// lineage g), so the upload is refused and no lineage is created.
func TestUploadRejectsVersionRefName(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir(), 0)
	for _, name := range []string{"g@v1", "g@latest", "a@b@v2"} {
		resp, err := http.Post(ts.URL+"/graphs?name="+url.QueryEscape(name), "text/plain", strings.NewReader("0 1\n1 2\n"))
		if err != nil {
			t.Fatal(err)
		}
		env := decodeJSON[map[string]apiError](t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || env["error"].Code != "bad_name" {
			t.Errorf("upload as %q: status %d code %q, want 400 bad_name", name, resp.StatusCode, env["error"].Code)
		}
	}
	getGraphInfo(t, ts, "g", http.StatusNotFound)
	// Names with an @ that is not a version tag stay addressable.
	for _, name := range []string{"g@v0", "g@beta", "g@"} {
		up := postGraph(t, ts, url.QueryEscape(name), []byte("0 1\n1 2\n"))
		if got := getGraphInfo(t, ts, url.PathEscape(name), http.StatusOK); got.ID != up.ID || got.Lineage != name {
			t.Errorf("GET %q = %+v, want lineage %q", name, got, name)
		}
	}
}

// TestReuploadOldContentKeepsNameConsistent: re-uploading v1's bytes
// under a name an edit has moved past appends them as the next version,
// so the bare name and name@latest agree on both digest and version.
func TestReuploadOldContentKeepsNameConsistent(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir(), 0)
	g := gen.BarabasiAlbert(200, 3, 6)
	v1 := postGraph(t, ts, "web", edgeListBytes(t, g))
	postEdges(t, ts, "web", growthBatch(g, 5, 2), http.StatusOK)
	again := postGraph(t, ts, "web", edgeListBytes(t, g))
	bare := getGraphInfo(t, ts, "web", http.StatusOK)
	latest := getGraphInfo(t, ts, "web@latest", http.StatusOK)
	if bare.ID != latest.ID || bare.Version != latest.Version || bare.ID != v1.ID || bare.Version != 3 {
		t.Fatalf("web = %s v%d, web@latest = %s v%d, want both %s v3",
			bare.ID, bare.Version, latest.ID, latest.Version, v1.ID)
	}
	if again.ID != v1.ID || again.Version != 3 {
		t.Fatalf("re-upload = %s v%d, want %s v3", again.ID, again.Version, v1.ID)
	}
}

// TestHubCacheBoundedOnUnorderedLineage: with no ordering artifact to
// carry forward, every tip move — an edit or an upload of new content
// under the name — still drops the superseded version's cached hub
// source, so K edits each followed by a hub-sourced BFS leave one
// entry.
func TestHubCacheBoundedOnUnorderedLineage(t *testing.T) {
	const edits = 5
	_, ts := newStoreServer(t, t.TempDir(), 0)
	g := gen.BarabasiAlbert(300, 3, 8)
	postGraph(t, ts, "soc", edgeListBytes(t, g))
	bfs := query.Request{Graph: "soc", Kernel: "BFS"}
	postQuery(t, ts, bfs, http.StatusOK)
	for i := 0; i < edits; i++ {
		req := growthBatch(g, 3, 1)
		postEdges(t, ts, "soc", req, http.StatusOK)
		g = applyMirror(t, g, req)
		postQuery(t, ts, bfs, http.StatusOK)
	}
	postGraph(t, ts, "soc", edgeListBytes(t, gen.BarabasiAlbert(250, 3, 9)))
	postQuery(t, ts, bfs, http.StatusOK)
	if n := metricsSnapshot(t, ts)["query_hub_cache_entries"]; n != 1 {
		t.Fatalf("query_hub_cache_entries = %d after %d edits and an upload on one lineage, want 1", n, edits)
	}
}

// TestUploadDuringEditKeepsChain races an upload of new content
// against an edit of the same lineage, sending the upload while the
// edit holds the lineage's lock. Whichever way the two serialize, every
// edit-made version must be its batch applied to the version before
// it: an upload the edit did not build on must not fall off the chain.
func TestUploadDuringEditKeepsChain(t *testing.T) {
	s, ts := newStoreServer(t, t.TempDir(), 0)
	big := edgeListBytes(t, gen.Web(30000, gen.DefaultWeb, 3))
	req := editRequest{
		Add: []edgeSpec{{From: 0, To: 7}, {From: 7, To: 3}},
		Del: []edgeSpec{{From: 0, To: 1}},
	}
	for round := 0; round < 3; round++ {
		name := fmt.Sprintf("web%d", round)
		postGraph(t, ts, name, big)

		var resp editResponse
		done := make(chan error, 1)
		go func() {
			body, _ := json.Marshal(req)
			r, err := http.Post(ts.URL+"/graphs/"+name+"/edges", "application/json", bytes.NewReader(body))
			if err != nil {
				done <- err
				return
			}
			defer r.Body.Close()
			if r.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(r.Body)
				done <- fmt.Errorf("edit: status %d: %s", r.StatusCode, b)
				return
			}
			done <- json.NewDecoder(r.Body).Decode(&resp)
		}()
		raced := true
		for raced && s.lineageLock(name).TryLock() {
			s.lineageLock(name).Unlock()
			select {
			case err := <-done: // the edit finished before the upload
				if err != nil {
					t.Fatal(err)
				}
				raced = false
			default:
				runtime.Gosched()
			}
		}
		postGraph(t, ts, name, edgeListBytes(t, gen.Ring(50+round)))
		if raced {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}

		v := resp.Graph.Version
		prevDigest, _, _, err := s.cfg.Store.ResolveVersion(name, v-1)
		if err != nil {
			t.Fatal(err)
		}
		prev, err := s.cfg.Store.GetGraph(prevDigest)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := applyMirror(t, prev, req).WriteBinary(&want); err != nil {
			t.Fatal(err)
		}
		h := store.NewDigest()
		h.Write(want.Bytes())
		if resp.Graph.ID != store.DigestSum(h) {
			t.Fatalf("round %d: %s@v%d is not its batch applied to v%d (%d nodes): an upload fell off the chain",
				round, name, v, v-1, prev.NumNodes())
		}
	}
}

// An upload keeps parallel edges, and deleting one removes every copy.
// Before, the delete tripped ApplyEdits' degree check and panicked the
// handler, so the client saw its connection drop.
func TestEditDeletesParallelEdge(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir(), 0)
	postGraph(t, ts, "multi", []byte("0 1\n0 1\n1 2\n2 0\n"))
	resp := postEdges(t, ts, "multi", editRequest{Del: []edgeSpec{{From: 0, To: 1}}}, http.StatusOK)
	if resp.EdgesDeleted != 2 || resp.Graph.Edges != 2 {
		t.Fatalf("deleted %d edges leaving %d, want both copies gone and 2 left", resp.EdgesDeleted, resp.Graph.Edges)
	}
}
