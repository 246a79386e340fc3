package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gorder/internal/gen"
	"gorder/internal/query"
)

// tenantDo issues one request under an X-Tenant identity and returns
// the response with the body drained into the second return.
func tenantDo(t *testing.T, ts *httptest.Server, method, path, tenant string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, b
}

// TestStreamingUploadParity pins the streaming ingest path: a text
// upload must land with the content digest the buffered path computed
// (sha256 of the body), deduplicate against itself, route binary CSR
// through the sniffer, and produce a graph queries can run on.
func TestStreamingUploadParity(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 1, QueueDepth: 4}})
	g := gen.BarabasiAlbert(4000, 4, 11)
	data := edgeListBytes(t, g)

	info := postGraph(t, ts, "text", data)
	sum := sha256.Sum256(data)
	if want := hex.EncodeToString(sum[:8]); info.ID != want {
		t.Fatalf("streamed upload ID %s, want content digest %s", info.ID, want)
	}
	if info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
		t.Fatalf("streamed graph is %d nodes / %d edges, want %d / %d",
			info.Nodes, info.Edges, g.NumNodes(), g.NumEdges())
	}
	if info.Bytes != int64(len(data)) {
		t.Fatalf("recorded %d upload bytes, want %d", info.Bytes, len(data))
	}

	// The same bytes under another name deduplicate: 200, same ID.
	resp, body := tenantDo(t, ts, http.MethodPost, "/graphs?name=text2", "", data)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate upload: status %d: %s", resp.StatusCode, body)
	}
	var dup GraphInfo
	if err := json.Unmarshal(body, &dup); err != nil {
		t.Fatal(err)
	}
	if dup.ID != info.ID {
		t.Fatalf("duplicate upload got ID %s, want %s", dup.ID, info.ID)
	}

	// Binary CSR routes through the sniffer to the binary decoder.
	var bin bytes.Buffer
	if err := g.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	binfo := postGraph(t, ts, "binform", bin.Bytes())
	if binfo.Nodes != g.NumNodes() || binfo.Edges != g.NumEdges() {
		t.Fatalf("binary upload is %d nodes / %d edges, want %d / %d",
			binfo.Nodes, binfo.Edges, g.NumNodes(), g.NumEdges())
	}

	// The streamed graph serves queries end to end.
	postQuery(t, ts, query.Request{Graph: "text", Kernel: "BFS"}, http.StatusOK)
}

// TestUploadBodyCap: a body over -max-upload-bytes gets a clean 413
// envelope — even though the limit fires mid-stream — and the daemon
// keeps serving smaller uploads afterwards.
func TestUploadBodyCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxUpload: 8 << 10, Pool: PoolConfig{Workers: 1, QueueDepth: 4}})
	big := edgeListBytes(t, gen.BarabasiAlbert(3000, 4, 3))
	if len(big) <= 8<<10 {
		t.Fatalf("test graph renders to %d bytes, need > %d", len(big), 8<<10)
	}
	resp, body := tenantDo(t, ts, http.MethodPost, "/graphs?name=big", "", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize upload: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "too_large") {
		t.Fatalf("oversize upload envelope missing too_large: %s", body)
	}
	postGraph(t, ts, "small", edgeListBytes(t, gen.BarabasiAlbert(100, 3, 3)))
}

// TestTenantRateLimit: per-tenant token buckets with Retry-After on
// the 429, independent buckets per tenant, and exemption for the
// operator routes.
func TestTenantRateLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{
		TenantRate:  1,
		TenantBurst: 2,
		Pool:        PoolConfig{Workers: 1, QueueDepth: 4},
	})
	var last *http.Response
	codes := make([]int, 3)
	for i := range codes {
		last, _ = tenantDo(t, ts, http.MethodGet, "/graphs", "alpha", nil)
		codes[i] = last.StatusCode
	}
	if codes[0] != 200 || codes[1] != 200 || codes[2] != 429 {
		t.Fatalf("burst-2 tenant saw %v, want [200 200 429]", codes)
	}
	ra, err := strconv.Atoi(last.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("429 Retry-After = %q, want an integer >= 1", last.Header.Get("Retry-After"))
	}

	// Another tenant has its own bucket; so does headerless traffic.
	if resp, _ := tenantDo(t, ts, http.MethodGet, "/graphs", "beta", nil); resp.StatusCode != 200 {
		t.Fatalf("tenant beta limited by tenant alpha's bucket: %d", resp.StatusCode)
	}
	if resp, _ := tenantDo(t, ts, http.MethodGet, "/graphs", "", nil); resp.StatusCode != 200 {
		t.Fatalf("default tenant limited by tenant alpha's bucket: %d", resp.StatusCode)
	}

	// Health and metrics answer even for an exhausted tenant.
	for _, path := range []string{"/healthz", "/metrics"} {
		if resp, _ := tenantDo(t, ts, http.MethodGet, path, "alpha", nil); resp.StatusCode != 200 {
			t.Fatalf("exempt route %s limited: %d", path, resp.StatusCode)
		}
	}
	if snap := metricsSnapshot(t, ts); snap["rate_limited_total"] < 1 {
		t.Fatalf("rate_limited_total = %d, want >= 1", snap["rate_limited_total"])
	}
}

// TestQueueWaitSurfaced: a job that sat behind another must report its
// queue wait separately from its run time, and the wait must land in
// the job_queue_wait_ms_total counter.
func TestQueueWaitSurfaced(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 1, QueueDepth: 8}})
	postGraph(t, ts, "big", edgeListBytes(t, gen.BarabasiAlbert(30000, 8, 7)))

	j1 := postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "big", Method: "minloga"})
	j2 := postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "big", Method: "minloga"})
	st2 := waitJob(t, ts, j2.ID)
	st1 := waitJob(t, ts, j1.ID)
	if st1.State != StateDone || st2.State != StateDone {
		t.Fatalf("jobs ended %s / %s", st1.State, st2.State)
	}
	if st2.QueueWaitMs <= 0 {
		t.Fatalf("second job behind a busy worker reports queue_wait_ms = %d, want > 0", st2.QueueWaitMs)
	}
	if snap := metricsSnapshot(t, ts); snap["job_queue_wait_ms_total"] < st2.QueueWaitMs {
		t.Fatalf("job_queue_wait_ms_total = %d, want >= %d",
			snap["job_queue_wait_ms_total"], st2.QueueWaitMs)
	}
}

// TestFairDequeueAcrossTenants pins the pool's dequeue order
// deterministically: with a blocking executor, a quiet tenant's job
// submitted after a noisy tenant's flood must run immediately after
// the in-flight job, not after the flood.
func TestFairDequeueAcrossTenants(t *testing.T) {
	var mu sync.Mutex
	var ran []string
	step := make(chan struct{})
	exec := func(ctx context.Context, req JobRequest, found foundFunc) (map[string]float64, error) {
		mu.Lock()
		ran = append(ran, req.Graph)
		mu.Unlock()
		<-step
		return nil, nil
	}
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: 16}, NewMetrics(), nil, exec)
	p.Start()
	submit := func(tenant, label string) {
		t.Helper()
		if _, err := p.Submit(JobRequest{Kind: KindEval, Graph: label, Tenant: tenant}); err != nil {
			t.Fatal(err)
		}
	}
	ranLen := func() int { mu.Lock(); defer mu.Unlock(); return len(ran) }

	submit("noisy", "blocker")
	for deadline := time.Now().Add(5 * time.Second); ranLen() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the blocker")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		submit("noisy", fmt.Sprintf("noisy-%d", i))
	}
	submit("quiet", "quiet")
	for i := 0; i < 7; i++ {
		step <- struct{}{}
	}
	for deadline := time.Now().Add(5 * time.Second); ranLen() < 7; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 7 jobs ran", ranLen())
		}
		time.Sleep(time.Millisecond)
	}
	p.Shutdown(context.Background())
	if ran[1] != "quiet" {
		t.Fatalf("dequeue order %v: the quiet tenant's job must follow the blocker, not the flood", ran)
	}
}

// TestTenantQueueCapHTTP: with a per-tenant queue cap, one tenant's
// flood hits tenant_queue_full while another tenant still submits.
func TestTenantQueueCapHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pool: PoolConfig{Workers: 1, QueueDepth: 8, TenantQueueDepth: 1},
	})
	postGraph(t, ts, "mid", edgeListBytes(t, gen.BarabasiAlbert(20000, 6, 5)))
	jobBody, _ := json.Marshal(JobRequest{Kind: KindOrder, Graph: "mid", Method: "minloga"})

	codes := make([]int, 3)
	var lastBody []byte
	for i := range codes {
		resp, body := tenantDo(t, ts, http.MethodPost, "/jobs", "noisy", jobBody)
		codes[i] = resp.StatusCode
		if resp.StatusCode == 429 {
			lastBody = body
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("tenant-cap 429 carries no Retry-After")
			}
		}
	}
	if codes[2] != 429 {
		t.Fatalf("third rapid submission got %v, want the tenant cap's 429", codes)
	}
	if !strings.Contains(string(lastBody), "tenant_queue_full") {
		t.Fatalf("cap envelope missing tenant_queue_full: %s", lastBody)
	}
	if resp, body := tenantDo(t, ts, http.MethodPost, "/jobs", "quiet", jobBody); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("quiet tenant blocked by noisy tenant's cap: %d: %s", resp.StatusCode, body)
	}
}

// TestQuietTenantNotStarvedUnderReadFlood is the fair-queueing
// acceptance e2e: one read slot, four goroutines flooding queries
// under one tenant, and a quiet tenant running ten sequential queries
// through the same gate. Every quiet query must succeed while the
// flood is live — the weighted-fair gate admits the quiet tenant
// within one round regardless of the flood's waiting depth.
func TestQuietTenantNotStarvedUnderReadFlood(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pool:             PoolConfig{Workers: 1, QueueDepth: 8},
		QueryConcurrency: 1,
	})
	postGraph(t, ts, "g", edgeListBytes(t, gen.BarabasiAlbert(3000, 4, 1)))

	postTenantQuery := func(tenant string, src int) int {
		s := src
		body, _ := json.Marshal(query.Request{Graph: "g", Kernel: "BFS", Source: &s})
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
		if err != nil {
			return -1
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return -1
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var noisyOK, noisyShed, noisyBad atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch code := postTenantQuery("noisy", rng.Intn(3000)); code {
				case http.StatusOK:
					noisyOK.Add(1)
				case http.StatusTooManyRequests:
					noisyShed.Add(1)
				default:
					noisyBad.Add(1)
				}
			}
		}(int64(i))
	}
	time.Sleep(100 * time.Millisecond) // let the flood park waiters

	start := time.Now()
	for i := 0; i < 10; i++ {
		if code := postTenantQuery("quiet", i); code != http.StatusOK {
			t.Errorf("quiet query %d under read flood: status %d", i, code)
		}
	}
	quietElapsed := time.Since(start)
	close(stop)
	wg.Wait()

	if t.Failed() {
		t.Fatalf("quiet tenant starved (flood: %d ok, %d shed, %d other)",
			noisyOK.Load(), noisyShed.Load(), noisyBad.Load())
	}
	if noisyOK.Load() == 0 {
		t.Fatal("the flood itself made no progress")
	}
	if noisyBad.Load() > 0 {
		t.Fatalf("flood saw %d non-200/429 responses", noisyBad.Load())
	}
	// Loose wall bound: ten fair admissions through a churning gate.
	if quietElapsed > 10*time.Second {
		t.Fatalf("quiet tenant needed %s for 10 queries", quietElapsed)
	}
}

// TestMixedTrafficRace hammers one store-backed daemon with eight
// goroutines of mixed uploads, order jobs, queries, and lineage edits
// under four tenants: no 5xx, and every accepted job reaches a
// terminal, successful state (none lost, none failed).
func TestMixedTrafficRace(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pool:             PoolConfig{Workers: 2, QueueDepth: 128},
		QueryConcurrency: 4,
	})
	postGraph(t, ts, "mix", edgeListBytes(t, gen.BarabasiAlbert(2000, 4, 8)))

	const goroutines, iters = 8, 12
	var mu sync.Mutex
	var jobIDs []string
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", gi%4)
			rng := rand.New(rand.NewSource(int64(gi)))
			do := func(path string, body []byte) (*http.Response, []byte) {
				req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return nil, nil
				}
				req.Header.Set("X-Tenant", tenant)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return nil, nil
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 500 {
					t.Errorf("%s returned %d: %s", path, resp.StatusCode, b)
				}
				return resp, b
			}
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0: // upload a fresh graph
					var buf bytes.Buffer
					if err := gen.BarabasiAlbert(150+7*gi+i, 3, uint64(100*gi+i)).WriteEdgeList(&buf); err != nil {
						t.Error(err)
						continue
					}
					do(fmt.Sprintf("/graphs?name=up-%d-%d", gi, i), buf.Bytes())
				case 1: // order the shared graph
					body, _ := json.Marshal(JobRequest{Kind: KindOrder, Graph: "mix", Method: "gorder"})
					if resp, b := do("/jobs", body); resp != nil && resp.StatusCode == http.StatusAccepted {
						var js JobStatus
						if err := json.Unmarshal(b, &js); err == nil {
							mu.Lock()
							jobIDs = append(jobIDs, js.ID)
							mu.Unlock()
						}
					}
				case 2: // query the shared graph
					s := rng.Intn(2000)
					body, _ := json.Marshal(query.Request{Graph: "mix", Kernel: "BFS", Source: &s})
					do("/query", body)
				case 3: // mutate the shared lineage
					body, _ := json.Marshal(map[string]any{
						"add": []map[string]int{{"from": rng.Intn(2000), "to": rng.Intn(2000)}},
					})
					do("/graphs/mix/edges", body)
				}
			}
		}(gi)
	}
	wg.Wait()
	if len(jobIDs) == 0 {
		t.Fatal("no order jobs were accepted")
	}
	for _, id := range jobIDs {
		if st := waitJob(t, ts, id); st.State != StateDone {
			t.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon unhealthy after the mixed run: %v %v", err, resp)
	}
	resp.Body.Close()
}
