package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
	"gorder/internal/store"
)

// openTestStore opens a store under a fresh test temp dir, closed at
// cleanup.
func openTestStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// newTestServer builds a started server + httptest frontend, over a
// fresh temp-dir store unless cfg supplies one.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = openTestStore(t)
	}
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.DrainAndPersist(5*time.Second, "")
	})
	return s, ts
}

// edgeListBytes renders g as an uploadable text edge list.
func edgeListBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeJSON[T any](t *testing.T, r io.Reader) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(r).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func postGraph(t *testing.T, ts *httptest.Server, name string, data []byte) GraphInfo {
	t.Helper()
	resp, err := http.Post(ts.URL+"/graphs?name="+name, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload %s: status %d: %s", name, resp.StatusCode, body)
	}
	return decodeJSON[GraphInfo](t, resp.Body)
}

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) JobStatus {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit job: status %d: %s", resp.StatusCode, b)
	}
	return decodeJSON[JobStatus](t, resp.Body)
}

// waitJob polls GET /jobs/{id} until the job reaches a terminal state.
func waitJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeJSON[JobStatus](t, resp.Body)
		resp.Body.Close()
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// TestEndToEndOrderJob is the acceptance flow: upload a graph, run a
// gorder job to completion, download the permutation, and confirm it
// validates and beats the identity ordering on the Gorder score.
func TestEndToEndOrderJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 2, QueueDepth: 8}})
	g := gen.BarabasiAlbert(600, 4, 42)
	info := postGraph(t, ts, "ba600", edgeListBytes(t, g))
	if info.Nodes != 600 {
		t.Fatalf("uploaded graph has %d nodes, want 600", info.Nodes)
	}

	job := postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "ba600", Method: "gorder"})
	st := waitJob(t, ts, job.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	if st.Metrics["score_F"] <= 0 {
		t.Fatalf("done job reported score_F = %v", st.Metrics["score_F"])
	}

	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/permutation")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("permutation download: status %d", resp.StatusCode)
	}
	perm, err := order.ReadPermutation(resp.Body)
	if err != nil {
		t.Fatalf("downloaded permutation invalid: %v", err)
	}
	if len(perm) != g.NumNodes() {
		t.Fatalf("permutation covers %d vertices, want %d", len(perm), g.NumNodes())
	}
	w := 5
	gain := order.Score(g, perm, w)
	base := order.Score(g, order.Identity(g.NumNodes()), w)
	if gain <= base {
		t.Fatalf("gorder score %d does not beat identity %d", gain, base)
	}
}

// TestDeadlineCancelsJob is the acceptance criterion that a job
// exceeding its deadline turns canceled instead of blocking a worker.
func TestDeadlineCancelsJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 1, QueueDepth: 8}})
	g := gen.BarabasiAlbert(30000, 8, 7)
	postGraph(t, ts, "big", edgeListBytes(t, g))

	job := postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "big", Method: "gorder", TimeoutMs: 1})
	st := waitJob(t, ts, job.ID)
	if st.State != StateCanceled {
		t.Fatalf("deadline job ended %s, want canceled", st.State)
	}
	// The worker must be free again: a quick job still completes.
	quick := postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "big", Method: "original"})
	if st := waitJob(t, ts, quick.ID); st.State != StateDone {
		t.Fatalf("follow-up job ended %s, want done", st.State)
	}
	if got := s.Metrics.Snapshot()["jobs_canceled"]; got < 1 {
		t.Fatalf("jobs_canceled = %d, want >= 1", got)
	}
	// The canceled job has no permutation to download.
	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/permutation")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("canceled job permutation: status %d, want 409", resp.StatusCode)
	}
}

// TestDeadlineCancelsAnnealJob proves the per-job deadline interrupts
// the simulated-annealing baselines mid-run — the two most expensive
// methods after Gorder — and that the cancellation shows up in the
// per-ordering metrics the registry hook feeds.
func TestDeadlineCancelsAnnealJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 1, QueueDepth: 8}})
	g := gen.BarabasiAlbert(30000, 8, 7)
	postGraph(t, ts, "big", edgeListBytes(t, g))

	for _, method := range []string{"minla", "minloga"} {
		job := postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "big", Method: method, TimeoutMs: 1})
		if st := waitJob(t, ts, job.ID); st.State != StateCanceled {
			t.Fatalf("%s deadline job ended %s, want canceled", method, st.State)
		}
	}
	snap := s.Metrics.Snapshot()
	for _, method := range []string{"minla", "minloga"} {
		if got := snap["ordering_runs_"+method]; got < 1 {
			t.Errorf("ordering_runs_%s = %d, want >= 1", method, got)
		}
		if got := snap["ordering_canceled_"+method]; got < 1 {
			t.Errorf("ordering_canceled_%s = %d, want >= 1", method, got)
		}
	}
}

func TestEvalJobScoresOrderJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 2, QueueDepth: 8}})
	g := gen.Web(500, gen.DefaultWeb, 3)
	postGraph(t, ts, "web", edgeListBytes(t, g))

	oj := postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "web", Method: "rcm"})
	if st := waitJob(t, ts, oj.ID); st.State != StateDone {
		t.Fatalf("order job ended %s", st.State)
	}
	ej := postJob(t, ts, JobRequest{Kind: KindEval, Graph: "web", OfJob: oj.ID, Kernel: "PR"})
	st := waitJob(t, ts, ej.ID)
	if st.State != StateDone {
		t.Fatalf("eval job ended %s (%s)", st.State, st.Error)
	}
	for _, key := range []string{"score_F", "bandwidth", "linear_cost", "log_cost", "l1_miss_rate", "sim_cycles"} {
		if _, ok := st.Metrics[key]; !ok {
			t.Errorf("eval metrics missing %s: %v", key, st.Metrics)
		}
	}
	// Identity-baseline eval (no of_job) also works.
	base := postJob(t, ts, JobRequest{Kind: KindEval, Graph: "web"})
	if st := waitJob(t, ts, base.ID); st.State != StateDone {
		t.Fatalf("baseline eval ended %s (%s)", st.State, st.Error)
	}
}

func TestUploadDeduplicatesByContent(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 1}})
	data := edgeListBytes(t, gen.Ring(64))
	a := postGraph(t, ts, "first", data)
	b := postGraph(t, ts, "second", data)
	if a.ID != b.ID {
		t.Fatalf("same bytes got two IDs: %s vs %s", a.ID, b.ID)
	}
	if n := s.Metrics.Snapshot()["store_graphs"]; n != 1 {
		t.Fatalf("store_graphs = %d, want 1 (dedup)", n)
	}
	// Both names resolve.
	for _, ref := range []string{"first", "second", a.ID} {
		resp, err := http.Get(ts.URL + "/graphs/" + ref)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /graphs/%s: status %d", ref, resp.StatusCode)
		}
	}
}

// TestBinaryUploadHugeEdgeCountIsBadGraph: a v0 binary CSR whose
// header claims 2^62 edges over 4 adjacency bytes is a malformed
// upload (400 bad_graph), not a handler panic that drops the
// connection.
func TestBinaryUploadHugeEdgeCountIsBadGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 1}})
	var body bytes.Buffer
	body.WriteString("GORDCSR1")
	binary.Write(&body, binary.LittleEndian, []int64{1, 1 << 62, 0, 1 << 62})
	body.Write([]byte{0, 0, 0, 0})
	resp, err := http.Post(ts.URL+"/graphs?name=huge", "application/octet-stream", &body)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if env := decodeJSON[map[string]apiError](t, resp.Body); env["error"].Code != "bad_graph" {
		t.Fatalf("code %q, want bad_graph", env["error"].Code)
	}
}

// TestUploadPersistFailureIs500: a graph that parses but cannot be
// persisted is a server-side failure (500 persist_failed), never a
// malformed upload; once the data directory is writable again the same
// upload registers normally. Blank names stay client errors.
func TestUploadPersistFailureIs500(t *testing.T) {
	st := openTestStore(t)
	_, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 1}, Store: st})
	upload := func(name string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/graphs?name="+name, "application/octet-stream",
			bytes.NewReader(edgeListBytes(t, gen.Ring(32))))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, decodeJSON[struct{ Error apiError }](t, resp.Body).Error.Code
	}

	// Replace the blob directory with a regular file: every graph write
	// now fails the way a full or read-only disk would.
	graphs := filepath.Join(st.Dir(), "graphs")
	if err := os.RemoveAll(graphs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(graphs, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if status, code := upload("ring"); status != http.StatusInternalServerError || code != "persist_failed" {
		t.Fatalf("upload to an unwritable store: %d %q, want 500 persist_failed", status, code)
	}

	if err := os.Remove(graphs); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(graphs, 0o755); err != nil {
		t.Fatal(err)
	}
	if status, _ := upload("ring"); status != http.StatusCreated {
		t.Fatalf("upload after the store recovered: status %d, want 201", status)
	}
	if status, code := upload("%20%20"); status != http.StatusBadRequest {
		t.Fatalf("blank-name upload: %d %q, want 400", status, code)
	}
}

func TestUploadSizeLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxUpload: 128, Pool: PoolConfig{Workers: 1}})
	big := bytes.Repeat([]byte("0 1\n"), 100)
	resp, err := http.Post(ts.URL+"/graphs?name=big", "application/octet-stream", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413", resp.StatusCode)
	}
	env := decodeJSON[map[string]apiError](t, resp.Body)
	if env["error"].Code != "too_large" {
		t.Fatalf("error envelope = %+v", env)
	}
}

func TestQueueDepthLimitRejects(t *testing.T) {
	// One worker pinned on a slow job; a depth-1 queue accepts one more
	// and rejects the third with 429.
	_, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 1, QueueDepth: 1, DefaultTimeout: 30 * time.Second}})
	g := gen.BarabasiAlbert(20000, 8, 1)
	postGraph(t, ts, "slow", edgeListBytes(t, g))

	postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "slow", Method: "gorder"})
	// Give the worker a moment to pick up the first job; then fill the
	// queue slot and overflow it. Each job asks for a different window,
	// so none is answered from the artifact cache in an instant — at
	// GOMAXPROCS=1 the first job can finish before the loop runs.
	deadline := time.Now().Add(5 * time.Second)
	var gotFull bool
	for w := 2; time.Now().Before(deadline) && !gotFull; w++ {
		body, _ := json.Marshal(JobRequest{Kind: KindOrder, Graph: "slow", Method: "gorder", Window: w})
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			env := decodeJSON[map[string]apiError](t, resp.Body)
			if env["error"].Code != "queue_full" {
				t.Fatalf("429 envelope = %+v", env)
			}
			gotFull = true
		}
		resp.Body.Close()
	}
	if !gotFull {
		t.Fatal("queue never reported full")
	}
}

func TestBadRequestsGetEnvelopes(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 1}})
	postGraph(t, ts, "ring", edgeListBytes(t, gen.Ring(16)))

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"wrong method healthz", http.MethodPost, "/healthz", "", 405, "method_not_allowed"},
		{"wrong method metrics", http.MethodDelete, "/metrics", "", 405, "method_not_allowed"},
		{"wrong method permutation", http.MethodPut, "/jobs/job-000001", "", 405, "method_not_allowed"},
		{"upload without name", http.MethodPost, "/graphs", "0 1\n", 400, "missing_name"},
		{"upload garbage", http.MethodPost, "/graphs?name=bad", "this is not a graph", 400, "bad_graph"},
		{"job bad json", http.MethodPost, "/jobs", "{", 400, "bad_request"},
		{"job unknown field", http.MethodPost, "/jobs", `{"kind":"order","graph":"ring","bogus":1}`, 400, "bad_request"},
		{"job unknown kind", http.MethodPost, "/jobs", `{"kind":"explode","graph":"ring"}`, 400, "unknown_kind"},
		{"job unknown method", http.MethodPost, "/jobs", `{"kind":"order","graph":"ring","method":"metis"}`, 400, "unknown_method"},
		{"job unknown graph", http.MethodPost, "/jobs", `{"kind":"order","graph":"nope"}`, 400, "graph_not_found"},
		{"job negative timeout", http.MethodPost, "/jobs", `{"kind":"order","graph":"ring","timeout_ms":-5}`, 400, "bad_timeout"},
		{"missing job", http.MethodGet, "/jobs/job-999999", "", 404, "job_not_found"},
		{"missing graph", http.MethodGet, "/graphs/nope", "", 404, "graph_not_found"},
		{"bad subresource", http.MethodGet, "/jobs/job-000001/frobnicate", "", 404, "not_found"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.wantStatus {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.wantStatus, body)
			continue
		}
		env := decodeJSON[map[string]apiError](t, resp.Body)
		resp.Body.Close()
		if env["error"].Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q", tc.name, env["error"].Code, tc.wantCode)
		}
	}
}

func TestMetricsEndpointCounts(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 1}})
	postGraph(t, ts, "ring", edgeListBytes(t, gen.Ring(32)))
	job := postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "ring", Method: "rcm"})
	waitJob(t, ts, job.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	snap := decodeJSON[map[string]int64](t, resp.Body)
	if snap["jobs_submitted"] < 1 || snap["jobs_completed"] < 1 {
		t.Fatalf("metrics did not count the job: %v", snap)
	}
	if snap["store_graphs"] != 1 {
		t.Fatalf("store_graphs = %d", snap["store_graphs"])
	}
	if _, ok := snap["uptime_seconds"]; !ok {
		t.Fatal("metrics missing uptime_seconds")
	}
	if snap["http_requests_total"] < 4 {
		t.Fatalf("http_requests_total = %d", snap["http_requests_total"])
	}
}

func TestShutdownPersistsQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "queued.json")

	s := New(Config{Pool: PoolConfig{Workers: 1, QueueDepth: 16, DefaultTimeout: 30 * time.Second}, Store: openTestStore(t)})
	s.Start()
	data := edgeListBytes(t, gen.BarabasiAlbert(20000, 8, 2))
	if _, _, err := s.ingest("big", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	// First job occupies the worker; the rest stay queued.
	first, err := s.Pool.Submit(JobRequest{Kind: KindOrder, Graph: "big", Method: "gorder"})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		st, _ := s.Pool.Get(first.ID)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job never started (state %s)", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	var queuedIDs []string
	for i := 0; i < 3; i++ {
		st, err := s.Pool.Submit(JobRequest{Kind: KindOrder, Graph: "big", Method: "rcm"})
		if err != nil {
			t.Fatal(err)
		}
		queuedIDs = append(queuedIDs, st.ID)
	}
	// Shut down with a tiny grace period: the in-flight gorder job gets
	// canceled, the queued ones go to the manifest.
	if err := s.DrainAndPersist(50*time.Millisecond, manifest); err != nil {
		t.Fatal(err)
	}
	// Submissions after shutdown are refused.
	if _, err := s.Pool.Submit(JobRequest{Kind: KindOrder, Graph: "big"}); err == nil {
		t.Fatal("submit after shutdown succeeded")
	}
	// Queued jobs are terminal (canceled), not stuck.
	for _, id := range queuedIDs {
		st, ok := s.Pool.Get(id)
		if !ok || st.State != StateCanceled {
			t.Fatalf("queued job %s state %s, want canceled", id, st.State)
		}
	}

	reqs, err := ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 {
		t.Fatalf("manifest has %d jobs, want 3", len(reqs))
	}

	// A fresh server replays the manifest.
	s2 := New(Config{Pool: PoolConfig{Workers: 2, QueueDepth: 16}, Store: openTestStore(t)})
	s2.Start()
	defer s2.DrainAndPersist(5*time.Second, "")
	if _, _, err := s2.ingest("big", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if n := s2.Replay(reqs); n != 3 {
		t.Fatalf("replayed %d jobs, want 3", n)
	}
}

func TestReplaySkipsUnknownGraphs(t *testing.T) {
	s := New(Config{Pool: PoolConfig{Workers: 1}, Store: openTestStore(t)})
	s.Start()
	defer s.DrainAndPersist(time.Second, "")
	n := s.Replay([]JobRequest{{Kind: KindOrder, Graph: "ghost", Method: "rcm"}})
	if n != 0 {
		t.Fatalf("replayed %d jobs against an empty registry", n)
	}
}

func TestManifestRoundTripAndMissing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	if reqs, err := ReadManifest(path); err != nil || reqs != nil {
		t.Fatalf("missing manifest: %v, %v", reqs, err)
	}
	in := []JobRequest{{Kind: KindOrder, Graph: "g", Method: "gorder", TimeoutMs: 500}}
	if err := WriteManifest(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != in[0] {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	// Writing an empty list removes the file.
	if err := WriteManifest(path, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err != nil {
		t.Fatal(err)
	}
	if reqs, _ := ReadManifest(path); reqs != nil {
		t.Fatalf("stale manifest survived: %+v", reqs)
	}
}

func TestConcurrentSubmitAndPoll(t *testing.T) {
	// Hammer the API from many goroutines; run under -race this is the
	// worker pool's data-race certification.
	s, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 4, QueueDepth: 256}})
	postGraph(t, ts, "ring", edgeListBytes(t, gen.Ring(128)))

	const clients = 8
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			var ids []string
			for i := 0; i < 5; i++ {
				body, _ := json.Marshal(JobRequest{Kind: KindOrder, Graph: "ring", Method: "rcm"})
				resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				st := JobStatus{}
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				ids = append(ids, st.ID)
			}
			for _, id := range ids {
				deadline := time.Now().Add(30 * time.Second)
				for {
					st, ok := s.Pool.Get(id)
					if ok && (st.State == StateDone || st.State == StateFailed) {
						if st.State != StateDone {
							errs <- fmt.Errorf("job %s: %s", id, st.Error)
							return
						}
						break
					}
					if time.Now().After(deadline) {
						errs <- fmt.Errorf("job %s stuck", id)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Metrics.Snapshot()["jobs_completed"]; got != clients*5 {
		t.Fatalf("jobs_completed = %d, want %d", got, clients*5)
	}
}

// newStoreServer builds a store-backed test server over dir.
func newStoreServer(t *testing.T, dir string, budget int64) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir, MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		Pool:  PoolConfig{Workers: 2, QueueDepth: 8},
		Store: st,
	})
	t.Cleanup(func() { st.Close() })
	return s, ts
}

func metricsSnapshot(t *testing.T, ts *httptest.Server) map[string]int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return decodeJSON[map[string]int64](t, resp.Body)
}

// TestStoreBackedServerArtifactCache is the amortization flow: the
// first order job computes and persists, the identical second job is
// answered from the artifact store without running the ordering.
func TestStoreBackedServerArtifactCache(t *testing.T) {
	s, ts := newStoreServer(t, t.TempDir(), 0)
	postGraph(t, ts, "ba", edgeListBytes(t, gen.BarabasiAlbert(400, 4, 9)))

	req := JobRequest{Kind: KindOrder, Graph: "ba", Method: "gorder", Window: 5}
	st1 := waitJob(t, ts, postJob(t, ts, req).ID)
	if st1.State != StateDone {
		t.Fatalf("first job ended %s (%s)", st1.State, st1.Error)
	}
	if st1.Metrics["cache_hit"] != 0 {
		t.Fatal("first job reported a cache hit on an empty store")
	}
	snap := metricsSnapshot(t, ts)
	if snap["store_misses_total"] < 1 || snap["store_orders"] != 1 {
		t.Fatalf("after cold job: misses=%d orders=%d", snap["store_misses_total"], snap["store_orders"])
	}
	runsBefore := snap["ordering_runs_gorder"]
	if runsBefore != 1 {
		t.Fatalf("ordering_runs_gorder = %d after one job", runsBefore)
	}

	// An alias spelling with defaulted options maps to the same artifact.
	st2 := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "ba", Method: "Gorder"}).ID)
	if st2.State != StateDone {
		t.Fatalf("second job ended %s (%s)", st2.State, st2.Error)
	}
	if st2.Metrics["cache_hit"] != 1 {
		t.Fatalf("repeat job metrics = %v, want cache_hit", st2.Metrics)
	}
	if st2.Metrics["score_F"] != st1.Metrics["score_F"] {
		t.Fatalf("cached score_F %v != computed %v", st2.Metrics["score_F"], st1.Metrics["score_F"])
	}
	snap = metricsSnapshot(t, ts)
	if snap["store_hits_total"] < 1 {
		t.Fatalf("store_hits_total = %d after repeat job", snap["store_hits_total"])
	}
	if snap["ordering_runs_gorder"] != runsBefore {
		t.Fatalf("repeat job recomputed: runs %d -> %d", runsBefore, snap["ordering_runs_gorder"])
	}
	// Both permutations download identically.
	for _, id := range []string{st1.ID, st2.ID} {
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/permutation")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("permutation of %s: %v status %d", id, err, resp.StatusCode)
		}
		resp.Body.Close()
	}
	_ = s
}

// TestPartitionedJobWorkersCacheKey: the job API accepts the parallel
// family with a workers field, and — because workers is pure
// scheduling — jobs that differ only in workers map to one cached
// artifact.
func TestPartitionedJobWorkersCacheKey(t *testing.T) {
	_, ts := newStoreServer(t, t.TempDir(), 0)
	postGraph(t, ts, "web", edgeListBytes(t, gen.Web(800, gen.DefaultWeb, 21)))

	st1 := waitJob(t, ts, postJob(t, ts, JobRequest{
		Kind: KindOrder, Graph: "web", Method: "gorder-partitioned", Workers: 4,
	}).ID)
	if st1.State != StateDone {
		t.Fatalf("partitioned job ended %s (%s)", st1.State, st1.Error)
	}
	if st1.Metrics["cache_hit"] != 0 {
		t.Fatal("first partitioned job reported a cache hit on an empty store")
	}

	// Same ordering, different worker bound: must be served from the
	// artifact store because the permutation cannot differ.
	st2 := waitJob(t, ts, postJob(t, ts, JobRequest{
		Kind: KindOrder, Graph: "web", Method: "gorder-partitioned", Workers: 1,
	}).ID)
	if st2.State != StateDone {
		t.Fatalf("repeat partitioned job ended %s (%s)", st2.State, st2.Error)
	}
	if st2.Metrics["cache_hit"] != 1 {
		t.Fatalf("workers=1 repeat metrics = %v, want cache_hit", st2.Metrics)
	}
	if st2.Metrics["score_F"] != st1.Metrics["score_F"] {
		t.Fatalf("cached score_F %v != computed %v", st2.Metrics["score_F"], st1.Metrics["score_F"])
	}

	// A different partition count is a different artifact.
	st3 := waitJob(t, ts, postJob(t, ts, JobRequest{
		Kind: KindOrder, Graph: "web", Method: "gorder-partitioned", Partitions: 4,
	}).ID)
	if st3.State != StateDone {
		t.Fatalf("partitions=4 job ended %s (%s)", st3.State, st3.Error)
	}
	if st3.Metrics["cache_hit"] != 0 {
		t.Fatal("partitions=4 job hit the partitions=default artifact")
	}

	// The lightweight parallel orderings are reachable through the job
	// API with a worker bound too.
	for _, m := range []string{"boba", "hubcluster", "dbg"} {
		st := waitJob(t, ts, postJob(t, ts, JobRequest{
			Kind: KindOrder, Graph: "web", Method: m, Workers: 2,
		}).ID)
		if st.State != StateDone {
			t.Fatalf("%s job ended %s (%s)", m, st.State, st.Error)
		}
	}
}

// TestGreedyWorkMetrics: a Gorder job reports its priority-queue op
// and placement counts through the core.OrderStats context carrier,
// the registry observation carries them, and /metrics aggregates them
// into ordering_heap_ops_total / ordering_placements_total.
func TestGreedyWorkMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 1, QueueDepth: 4}})
	g := gen.Web(600, gen.DefaultWeb, 3)
	postGraph(t, ts, "web", edgeListBytes(t, g))

	snap := metricsSnapshot(t, ts)
	if snap["ordering_heap_ops_total"] != 0 || snap["ordering_placements_total"] != 0 {
		t.Fatalf("work counters non-zero before any job: heap_ops=%d placements=%d",
			snap["ordering_heap_ops_total"], snap["ordering_placements_total"])
	}

	st := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "web", Method: "gorder"}).ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	snap = metricsSnapshot(t, ts)
	placed := snap["ordering_placements_total"]
	if placed != int64(g.NumNodes()) {
		t.Errorf("ordering_placements_total = %d, want %d", placed, g.NumNodes())
	}
	ops := snap["ordering_heap_ops_total"]
	if ops <= placed {
		t.Errorf("ordering_heap_ops_total = %d, implausibly low for %d placements", ops, placed)
	}

	// A second job accumulates on top.
	st = waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "web", Method: "gorder", Window: 3}).ID)
	if st.State != StateDone {
		t.Fatalf("second job ended %s (%s)", st.State, st.Error)
	}
	snap = metricsSnapshot(t, ts)
	if got := snap["ordering_placements_total"]; got != 2*int64(g.NumNodes()) {
		t.Errorf("ordering_placements_total = %d after two jobs, want %d", got, 2*g.NumNodes())
	}
	if got := snap["ordering_heap_ops_total"]; got <= ops {
		t.Errorf("ordering_heap_ops_total did not grow: %d -> %d", ops, got)
	}
}

// TestStoreBackedServerRestart rebuilds the server over the same data
// directory and expects the full catalog and artifact cache back.
func TestStoreBackedServerRestart(t *testing.T) {
	dir := t.TempDir()
	g := gen.BarabasiAlbert(300, 3, 5)

	_, ts := newStoreServer(t, dir, 0)
	info := postGraph(t, ts, "ba", edgeListBytes(t, g))
	st := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "ba", Method: "rcm"}).ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	ts.Close()

	_, ts2 := newStoreServer(t, dir, 0)
	resp, err := http.Get(ts2.URL + "/graphs")
	if err != nil {
		t.Fatal(err)
	}
	graphs := decodeJSON[map[string][]GraphInfo](t, resp.Body)["graphs"]
	resp.Body.Close()
	if len(graphs) != 1 || graphs[0].ID != info.ID || graphs[0].Name != "ba" {
		t.Fatalf("restarted catalog = %+v", graphs)
	}
	if graphs[0].Resident || !graphs[0].OnDisk {
		t.Fatalf("restarted graph resident=%v on_disk=%v, want false/true",
			graphs[0].Resident, graphs[0].OnDisk)
	}

	// The repeat job is a pure artifact hit — no ordering run at all.
	st2 := waitJob(t, ts2, postJob(t, ts2, JobRequest{Kind: KindOrder, Graph: info.ID, Method: "rcm"}).ID)
	if st2.State != StateDone || st2.Metrics["cache_hit"] != 1 {
		t.Fatalf("restarted repeat job: state=%s metrics=%v", st2.State, st2.Metrics)
	}
	snap := metricsSnapshot(t, ts2)
	if snap["ordering_runs_rcm"] != 0 {
		t.Fatalf("restarted daemon recomputed: ordering_runs_rcm = %d", snap["ordering_runs_rcm"])
	}
	if snap["store_hits_total"] != 1 {
		t.Fatalf("store_hits_total = %d", snap["store_hits_total"])
	}
	// Serving the job pulled the graph resident.
	resp, err = http.Get(ts2.URL + "/graphs")
	if err != nil {
		t.Fatal(err)
	}
	graphs = decodeJSON[map[string][]GraphInfo](t, resp.Body)["graphs"]
	resp.Body.Close()
	if !graphs[0].Resident {
		t.Error("graph not resident after serving a job")
	}
}

// TestStoreBackedServerEviction keeps the daemon under a byte budget:
// uploading past it evicts, yet every graph stays servable.
func TestStoreBackedServerEviction(t *testing.T) {
	budget := gen.Ring(256).MemoryBytes() * 2
	s, ts := newStoreServer(t, t.TempDir(), budget)
	for i := 0; i < 3; i++ {
		postGraph(t, ts, fmt.Sprintf("ring%d", i), edgeListBytes(t, gen.Ring(256-i)))
	}
	snap := metricsSnapshot(t, ts)
	if snap["store_evictions_total"] < 1 {
		t.Fatalf("no evictions under budget %d: %v", budget, snap)
	}
	if snap["store_resident_bytes"] > budget {
		t.Fatalf("resident bytes %d exceed budget %d", snap["store_resident_bytes"], budget)
	}
	for i := 0; i < 3; i++ {
		st := waitJob(t, ts, postJob(t, ts, JobRequest{
			Kind: KindOrder, Graph: fmt.Sprintf("ring%d", i), Method: "rcm",
		}).ID)
		if st.State != StateDone {
			t.Fatalf("job on ring%d ended %s (%s)", i, st.State, st.Error)
		}
	}
	_ = s
}
