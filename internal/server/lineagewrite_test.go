package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
	"gorder/internal/query"
	"gorder/internal/store"
)

// TestRepairStraddlingEditKeepsTipRecord: a repair computed on a tip
// that an edit supersedes before the repair commits persists nothing,
// so the quality record still describes the edit's version.
func TestRepairStraddlingEditKeepsTipRecord(t *testing.T) {
	s, ts := newTestServer(t, Config{DecayThreshold: 1.5, DisableAutoRepair: true})
	g := gen.BarabasiAlbert(400, 4, 11)
	postGraph(t, ts, "soc", edgeListBytes(t, g))
	if st := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "soc", Method: "gorder"}).ID); st.State != StateDone {
		t.Fatalf("order job ended %s (%s)", st.State, st.Error)
	}
	old, oldDigest, ok := s.cfg.Store.Resolve("soc")
	if !ok {
		t.Fatal("soc's tip does not load")
	}
	postEdges(t, ts, "soc", growthBatch(g, 20, 5), http.StatusOK)

	metrics, err := s.executeRepair(context.Background(), old, "soc", oldDigest, func(order.Permutation, *OrderArtifact) {})
	if err != nil {
		t.Fatal(err)
	}
	tip, _ := s.cfg.Store.Lookup("soc")
	if q, ok := s.cfg.Store.GetQuality("soc"); !ok || q.CurEdges != tip.Edges {
		t.Fatalf("quality record has CurEdges %d, the tip %d edges: a repair of the superseded tip overwrote it",
			q.CurEdges, tip.Edges)
	}
	if metrics["noop"] != 1 || metrics["superseded"] != 1 {
		t.Fatalf("repair of a superseded tip = %v, want a superseded no-op", metrics)
	}
}

// TestUploadOverQueriedTipDropsRelabeling: an upload that replaces a
// tip whose relabeling the query tier caches drops that relabeling, as
// an edit does, and not only the tip's hub.
func TestUploadOverQueriedTipDropsRelabeling(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	postGraph(t, ts, "w", edgeListBytes(t, gen.Web(5000, gen.DefaultWeb, 3)))
	if st := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "w", Method: "gorder"}).ID); st.State != StateDone {
		t.Fatalf("order job ended %s (%s)", st.State, st.Error)
	}
	for src := 1; src <= 3; src++ {
		postQuery(t, ts, query.Request{Graph: "w", Kernel: "BFS", Source: &src}, http.StatusOK)
	}
	if n := s.Query.GraphCacheEntries(); n != 1 {
		t.Fatalf("%d relabelings cached after three queries, want 1", n)
	}
	postGraph(t, ts, "w", edgeListBytes(t, gen.Ring(100)))
	if n := s.Query.GraphCacheEntries(); n != 0 {
		t.Fatalf("%d relabelings cached after an upload replaced the only queried tip, want 0", n)
	}
}

// TestConcurrentLineageWrites drives four lineages at once with edits,
// uploads, order jobs and the repair every edit enqueues (the decay
// threshold is unreachable). Once the traffic stops, every lineage's
// quality record describes its tip, every edit-made version is its
// batch applied to the version before it, and no request was refused
// but a job shed by a full queue.
func TestConcurrentLineageWrites(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Pool:           PoolConfig{Workers: 2, QueueDepth: 64},
		DecayThreshold: 1.5,
	})
	const lineages, edits = 4, 12
	type edit struct {
		name string
		req  editRequest
		resp editResponse
	}
	var (
		mu    sync.Mutex
		made  []edit
		jobs  []string
		wg    sync.WaitGroup
		state = func(id string) JobStatus {
			for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
				if st, _ := s.Pool.Get(id); st.State == StateDone || st.State == StateFailed || st.State == StateCanceled {
					return st
				}
			}
			return JobStatus{ID: id, State: "unfinished"}
		}
	)
	post := func(path string, body []byte, want ...int) []byte {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return nil
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if !slices.Contains(want, resp.StatusCode) {
			t.Errorf("POST %s: status %d: %s", path, resp.StatusCode, b)
			return nil
		}
		return b
	}
	submit := func(req JobRequest) string {
		body, _ := json.Marshal(req)
		var st JobStatus
		if b := post("/jobs", body, http.StatusAccepted, http.StatusTooManyRequests); json.Unmarshal(b, &st) == nil && st.ID != "" {
			mu.Lock()
			jobs = append(jobs, st.ID)
			mu.Unlock()
		}
		return st.ID
	}

	for l := 0; l < lineages; l++ {
		name := fmt.Sprintf("lin%d", l)
		contents := [][]byte{
			edgeListBytes(t, gen.BarabasiAlbert(300, 3, uint64(10+l))),
			edgeListBytes(t, gen.BarabasiAlbert(260, 3, uint64(50+l))),
		}
		postGraph(t, ts, name, contents[0])
		uploaded := make(chan struct{})
		wg.Add(3)
		go func() { // uploads alternate the lineage between two contents
			defer wg.Done()
			defer close(uploaded)
			for i := 1; i <= 3; i++ {
				post("/graphs?name="+name, contents[i%2], http.StatusOK, http.StatusCreated)
			}
		}()
		go func() { // edits touch vertices every content has, and always append one
			defer wg.Done()
			rng := gen.NewRNG(uint64(l))
			for i := 0; i < edits; i++ {
				req := editRequest{AddNodes: 1, Del: []edgeSpec{{From: rng.Intn(200), To: rng.Intn(200)}}}
				for j := 0; j < 3; j++ {
					req.Add = append(req.Add, edgeSpec{From: rng.Intn(200), To: rng.Intn(200)})
				}
				body, _ := json.Marshal(req)
				var resp editResponse
				if json.Unmarshal(post("/graphs/"+name+"/edges", body, http.StatusOK), &resp) == nil {
					mu.Lock()
					made = append(made, edit{name, req, resp})
					if resp.RepairJob != "" {
						jobs = append(jobs, resp.RepairJob)
					}
					mu.Unlock()
				}
			}
		}()
		go func() { // order jobs until, with the uploads over, a record stands
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if id := submit(JobRequest{Kind: KindOrder, Graph: name, Method: "gorder"}); id != "" {
					state(id)
				}
				select {
				case <-uploaded:
					if _, ok := s.cfg.Store.GetQuality(name); ok {
						return
					}
				default:
				}
			}
			t.Errorf("%s: no quality record after 200 order jobs", name)
		}()
	}
	wg.Wait()

	superseded := 0
	for _, id := range jobs {
		st := state(id)
		superseded += int(st.Metrics["superseded"])
		failedRepair := st.Request.Kind == KindRepair && st.State == StateFailed &&
			strings.Contains(st.Error, "has no tracked ordering") // an upload cleared the record
		if st.State != StateDone && !failedRepair {
			t.Errorf("%s job %s ended %s: %s", st.Request.Kind, id, st.State, st.Error)
		}
	}
	t.Logf("%d edits, %d jobs, %d repairs superseded by a later write", len(made), len(jobs), superseded)
	st := s.cfg.Store
	for l := 0; l < lineages; l++ {
		name := fmt.Sprintf("lin%d", l)
		tip, _ := st.Lookup(name)
		if q, ok := st.GetQuality(name); !ok || q.CurEdges != tip.Edges {
			t.Errorf("%s: quality record (ok=%v) has CurEdges %d, its tip %d edges", name, ok, q.CurEdges, tip.Edges)
		}
	}
	for _, e := range made {
		v := e.resp.Graph.Version
		prevDigest, _, _, err := st.ResolveVersion(e.name, v-1)
		if err != nil {
			t.Fatal(err)
		}
		prev, err := st.GetGraph(prevDigest)
		if err != nil {
			t.Fatal(err)
		}
		if got := graphDigest(t, applyMirror(t, prev, e.req)); e.resp.Graph.ID != got {
			t.Errorf("%s@v%d is not its batch applied to v%d", e.name, v, v-1)
		}
	}
}

// graphDigest is the ID an upload of g's binary encoding gets.
func graphDigest(t *testing.T, g *graph.Graph) string {
	t.Helper()
	h := store.NewDigest()
	if err := g.WriteBinary(h); err != nil {
		t.Fatal(err)
	}
	return store.DigestSum(h)
}

// BenchmarkEditLineages measures edit throughput over the HTTP handler:
// c goroutines each send one-edge edits to lineage i mod L of L ordered
// lineages (2,000-vertex social graphs). Edits of one lineage take
// turns on its lock; edits of different lineages need not wait for
// each other.
func BenchmarkEditLineages(b *testing.B) {
	var text bytes.Buffer
	if err := gen.BarabasiAlbert(2000, 4, 1).WriteEdgeList(&text); err != nil {
		b.Fatal(err)
	}
	for _, lineages := range []int{1, 8} {
		for _, c := range []int{4, 16} {
			b.Run(fmt.Sprintf("lineages=%d/c=%d", lineages, c), func(b *testing.B) {
				st, err := store.Open(store.Config{Dir: b.TempDir()})
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				s := New(Config{Store: st, DisableAutoRepair: true})
				s.Start()
				defer s.Shutdown(context.Background())
				h := s.Handler()
				post := func(path, body string) int {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
					return rec.Code
				}
				for l := 0; l < lineages; l++ {
					name := fmt.Sprintf("l%d", l)
					post("/graphs?name="+name, text.String())
					status, err := s.Pool.Submit(JobRequest{Kind: KindOrder, Graph: name, Method: "gorder"})
					if err != nil {
						b.Fatal(err)
					}
					for st, _ := s.Pool.Get(status.ID); st.State != StateDone; st, _ = s.Pool.Get(status.ID) {
						time.Sleep(time.Millisecond)
					}
				}
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < c; i++ {
					wg.Add(1)
					go func(name string) {
						defer wg.Done()
						for k := next.Add(1); k <= int64(b.N); k = next.Add(1) {
							body := fmt.Sprintf(`{"add":[{"from":%d,"to":%d}]}`, k*7919%2000, (k*104729+1)%2000)
							if code := post("/graphs/"+name+"/edges", body); code != http.StatusOK {
								b.Errorf("edit of %s: status %d", name, code)
								return
							}
						}
					}(fmt.Sprintf("l%d", i%lineages))
				}
				wg.Wait()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "edits/s")
			})
		}
	}
}
