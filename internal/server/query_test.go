package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gorder/internal/gen"
	"gorder/internal/query"
	"gorder/internal/registry"
)

// postQuery submits one query and returns the decoded response, after
// asserting the status.
func postQuery(t *testing.T, ts *httptest.Server, req query.Request, wantStatus int) *query.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /query: status %d, want %d: %s", resp.StatusCode, wantStatus, b)
	}
	if wantStatus != http.StatusOK {
		return nil
	}
	out := decodeJSON[query.Response](t, resp.Body)
	return &out
}

// TestQueryEndToEnd is the acceptance flow: upload → order → query
// (BFS + PageRank) with registry parity, repeat-query cache hit with
// zero kernel recomputation, and a materialized PageRank surviving a
// daemon restart.
func TestQueryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	g := gen.BarabasiAlbert(500, 4, 21)
	_, ts := newStoreServer(t, dir, 0)
	info := postGraph(t, ts, "ba", edgeListBytes(t, g))
	st := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "ba", Method: "gorder"}).ID)
	if st.State != StateDone {
		t.Fatalf("order job ended %s (%s)", st.State, st.Error)
	}

	// BFS from the hub over the freshly stored ordering: per-vertex
	// parity with a direct registry run on the natural graph.
	targets := []int{0, 3, 250, 499}
	bfs := postQuery(t, ts, query.Request{Graph: "ba", Kernel: "BFS", Targets: targets}, http.StatusOK)
	if bfs.Ordering.Method != "gorder" || bfs.Ordering.Source != "latest" {
		t.Fatalf("BFS served over %+v, want the stored gorder artifact", bfs.Ordering)
	}
	if bfs.CacheHit {
		t.Fatal("first BFS query reported a cache hit")
	}
	k, _ := registry.LookupKernel("BFS")
	want, err := k.Query(context.Background(), g, registry.KernelParams{SPSource: int(registry.HubSource(g))},
		new(registry.QueryScratch))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range bfs.Values {
		if v.Node != targets[i] || v.Value != want.Value(v.Node) {
			t.Fatalf("BFS value %d = %+v, want node %d value %v",
				i, v, targets[i], want.Value(targets[i]))
		}
	}

	// PageRank parity within FP tolerance (summation order differs on
	// the reordered graph).
	pr := postQuery(t, ts, query.Request{Graph: info.ID, Kernel: "PR", Targets: targets}, http.StatusOK)
	kpr, _ := registry.LookupKernel("PR")
	wantPR, err := kpr.Query(context.Background(), g, registry.KernelParams{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range pr.Values {
		wv := wantPR.Value(targets[i])
		if math.Abs(v.Value-wv) > 1e-9*(1+math.Abs(wv)) {
			t.Fatalf("PR value at %d = %v, want %v", targets[i], v.Value, wv)
		}
	}

	// Repeat PR query: a cache hit with zero new kernel runs.
	runs := metricsSnapshot(t, ts)["query_kernel_runs_total"]
	again := postQuery(t, ts, query.Request{Graph: "ba", Kernel: "PR", Targets: targets}, http.StatusOK)
	if !again.CacheHit {
		t.Fatal("repeat PR query missed the result cache")
	}
	snap := metricsSnapshot(t, ts)
	if snap["query_kernel_runs_total"] != runs {
		t.Fatalf("repeat query recomputed: kernel runs %d -> %d",
			runs, snap["query_kernel_runs_total"])
	}
	if snap["query_cache_hits_total"] < 1 || snap["query_total_pr"] < 2 {
		t.Fatalf("query metrics after repeat: %v", snap)
	}
	ts.Close()

	// Restart: the materialized PageRank serves with zero kernel runs.
	_, ts2 := newStoreServer(t, dir, 0)
	revived := postQuery(t, ts2, query.Request{Graph: info.ID, Kernel: "PR", Targets: targets}, http.StatusOK)
	if !revived.CacheHit || !revived.Materialized {
		t.Fatalf("restarted PR query: hit=%v materialized=%v, want both",
			revived.CacheHit, revived.Materialized)
	}
	if revived.Ordering.Method != "gorder" || revived.Ordering.Source != "cache" {
		t.Fatalf("restarted PR ordering = %+v", revived.Ordering)
	}
	for i, v := range revived.Values {
		if v.Value != pr.Values[i].Value {
			t.Fatalf("materialized value %d = %v, want %v", i, v.Value, pr.Values[i].Value)
		}
	}
	snap = metricsSnapshot(t, ts2)
	if snap["query_kernel_runs_total"] != 0 {
		t.Fatalf("restarted daemon ran %d kernels for a materialized result",
			snap["query_kernel_runs_total"])
	}
	if snap["query_materialized_hits_total"] != 1 || snap["store_result_hits_total"] != 1 {
		t.Fatalf("materialization counters after restart: %v", snap)
	}
}

// TestCachedRelabelingSkipsGraphReload: with a 1-byte budget nothing is
// resident, yet a query whose relabeling is cached runs without
// reloading the natural graph from disk.
func TestCachedRelabelingSkipsGraphReload(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir(), 1)
	postGraph(t, ts, "ba", edgeListBytes(t, gen.BarabasiAlbert(500, 4, 3)))
	if st := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "ba", Method: "gorder"}).ID); st.State != StateDone {
		t.Fatalf("order job ended %s (%s)", st.State, st.Error)
	}
	for src := 1; src <= 3; src++ {
		before := metricsSnapshot(t, ts)
		resp := postQuery(t, ts, query.Request{Graph: "ba", Kernel: "BFS", Source: &src}, http.StatusOK)
		if resp.Ordering.Method != "gorder" || resp.CacheHit {
			t.Fatalf("source %d: served over %+v (cache hit %v), want a gorder kernel run", src, resp.Ordering, resp.CacheHit)
		}
		after := metricsSnapshot(t, ts)
		if src > 1 && after["store_graph_reloads_total"] != before["store_graph_reloads_total"] {
			t.Fatalf("source %d: reloads %d -> %d with the relabeling cached", src,
				before["store_graph_reloads_total"], after["store_graph_reloads_total"])
		}
	}
}

// TestReadsNotBlockedByCompute pins the read/compute separation: with
// every worker busy on a long ordering job, queries and catalog reads
// still answer immediately.
func TestReadsNotBlockedByCompute(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 1, QueueDepth: 8}})
	postGraph(t, ts, "small", edgeListBytes(t, gen.BarabasiAlbert(200, 3, 4)))
	big := gen.BarabasiAlbert(30000, 8, 7)
	postGraph(t, ts, "big", edgeListBytes(t, big))

	// Saturate the only worker with a stream of annealing jobs — each
	// runs a few hundred milliseconds, so the pool stays busy for the
	// whole read window.
	jobs := make([]string, 8)
	for i := range jobs {
		jobs[i] = postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "big", Method: "minloga"}).ID
	}

	// Reads must complete while the worker is pinned.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp := postQuery(t, ts, query.Request{Graph: "small", Kernel: "BFS"}, http.StatusOK)
		if resp.Ordering.Method != "natural" {
			t.Errorf("query on an unordered graph served over %q", resp.Ordering.Method)
		}
		r, err := http.Get(ts.URL + "/graphs")
		if err != nil || r.StatusCode != http.StatusOK {
			t.Errorf("GET /graphs during compute: %v status %d", err, r.StatusCode)
		}
		if err == nil {
			r.Body.Close()
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reads queued behind the compute worker pool")
	}

	// The worker is still grinding through the job backlog — the reads
	// did not wait for the compute pool to drain.
	unfinished := 0
	for _, id := range jobs {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeJSON[JobStatus](t, resp.Body)
		resp.Body.Close()
		if st.State == StateQueued || st.State == StateRunning {
			unfinished++
		}
	}
	if unfinished == 0 {
		t.Fatal("every compute job finished before the reads; the test raced the pool")
	}
	for _, id := range jobs {
		waitJob(t, ts, id)
	}
}

// TestQueryValidationEnvelopes: submit-time validation speaks the same
// JSON error envelope as the job queue, with structured codes.
func TestQueryValidationEnvelopes(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 1, QueueDepth: 4}})
	postGraph(t, ts, "ring", edgeListBytes(t, gen.Ring(64)))
	src := func(v int) *int { return &v }

	cases := []struct {
		name   string
		req    query.Request
		status int
		code   string
	}{
		{"unknown kernel", query.Request{Graph: "ring", Kernel: "Frobnicate"}, 404, "unknown_kernel"},
		{"order-dependent kernel", query.Request{Graph: "ring", Kernel: "DFS"}, 400, "kernel_not_queryable"},
		{"unknown graph", query.Request{Graph: "nope", Kernel: "BFS"}, 404, "unknown_graph"},
		{"out-of-range source", query.Request{Graph: "ring", Kernel: "BFS", Source: src(64)}, 400, "source_out_of_range"},
		{"out-of-range target", query.Request{Graph: "ring", Kernel: "BFS", Targets: []int{99}}, 400, "target_out_of_range"},
		{"unknown ordering", query.Request{Graph: "ring", Kernel: "BFS", Order: "zorder"}, 400, "unknown_order"},
		{"artifact-less ordering", query.Request{Graph: "ring", Kernel: "BFS", Order: "gorder"}, 409, "order_not_ready"},
	}
	for _, tc := range cases {
		body, _ := json.Marshal(tc.req)
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		envelope := decodeJSON[map[string]apiError](t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status || envelope["error"].Code != tc.code {
			t.Errorf("%s: status %d code %q, want %d %q",
				tc.name, resp.StatusCode, envelope["error"].Code, tc.status, tc.code)
		}
		if envelope["error"].Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}

	// Malformed and over-specified JSON get the envelope too.
	for _, body := range []string{"{not json", `{"graph":"ring","kernel":"BFS","bogus":1}`} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		envelope := decodeJSON[map[string]apiError](t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || envelope["error"].Code != "bad_request" {
			t.Errorf("body %q: status %d code %q", body, resp.StatusCode, envelope["error"].Code)
		}
	}
	// Wrong method gets 405 with Allow.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
		t.Errorf("GET /query: status %d allow %q", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

func TestQueryBatchEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 1, QueueDepth: 4}})
	postGraph(t, ts, "ba", edgeListBytes(t, gen.BarabasiAlbert(300, 3, 8)))

	queries := make([]query.Request, 6)
	for i := range queries {
		src := i * 11
		queries[i] = query.Request{Graph: "ba", Kernel: "BFS", Source: &src}
	}
	queries[5] = query.Request{Graph: "ba", Kernel: "NoSuch"}
	body, _ := json.Marshal(map[string]any{"queries": queries})
	resp, err := http.Post(ts.URL+"/query/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out := decodeJSON[struct {
		Items []query.BatchItem `json:"items"`
		OK    int               `json:"ok"`
	}](t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out.OK != 5 || len(out.Items) != 6 {
		t.Fatalf("batch: status %d ok=%d items=%d", resp.StatusCode, out.OK, len(out.Items))
	}
	for i, it := range out.Items[:5] {
		if it.Response == nil || it.Response.Kernel != "BFS" {
			t.Fatalf("item %d: %+v", i, it)
		}
	}
	if out.Items[5].Error == nil || out.Items[5].Error.Code != "unknown_kernel" {
		t.Fatalf("bad item error = %+v", out.Items[5].Error)
	}
	if got := s.Metrics.Snapshot()["query_total_bfs"]; got != 5 {
		t.Errorf("query_total_bfs = %d, want 5", got)
	}

	// Oversized and empty batches are rejected up front.
	over, _ := json.Marshal(map[string]any{
		"queries": make([]query.Request, query.MaxBatch+1),
	})
	for _, tc := range []struct {
		body []byte
		code string
	}{
		{over, "batch_too_large"},
		{[]byte(`{"queries":[]}`), "empty_batch"},
	} {
		resp, err := http.Post(ts.URL+"/query/batch", "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		envelope := decodeJSON[map[string]apiError](t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || envelope["error"].Code != tc.code {
			t.Errorf("batch %s: status %d code %q", tc.code, resp.StatusCode, envelope["error"].Code)
		}
	}
}
