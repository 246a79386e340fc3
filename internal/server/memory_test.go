package server

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"testing"

	"gorder/internal/gen"
	"gorder/internal/memstat"
	"gorder/internal/query"
)

// streamEdges writes a web-like edge list over n vertices — each vertex
// links to its next few IDs and to a few random ones — to a pipe, so the
// uploading test never holds the text or a graph of its own: the heap
// the daemon is checked against is the daemon's.
func streamEdges(n int, seed uint64) io.Reader {
	pr, pw := io.Pipe()
	go func() {
		rng := gen.NewRNG(seed)
		w := bufio.NewWriter(pw)
		for u := 0; u < n; u++ {
			for k := 1; k <= 3; k++ {
				fmt.Fprintf(w, "%d %d\n", u, (u+k)%n)
			}
			for k := 0; k < 5; k++ {
				fmt.Fprintf(w, "%d %d\n", u, rng.Intn(n))
			}
		}
		pw.CloseWithError(w.Flush())
	}()
	return pr
}

// TestStageEndCollection: the stages that drop a graph-sized transient
// collect once it is garbage, so the heap after an upload returns, and
// again after an order job is done, holds the stored graph and little
// else — not the parser's edge shards or the greedy's heap and lists.
// Each stage's collection is counted in /metrics: one for the upload,
// one for the order job, and one per relabel build that evicted the
// natural tip.
func TestStageEndCollection(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 1, QueueDepth: 8}})
	const slack = 2 << 20
	checkHeap := func(stage string) {
		t.Helper()
		heap, resident := memstat.Read(memstat.HeapObjects), s.cfg.Store.ResidentBytes()
		if heap > resident*3/2+slack {
			t.Fatalf("after the %s: %d heap object bytes, want at most 1.5 × the %d resident + %d",
				stage, heap, resident, slack)
		}
	}

	resp, err := http.Post(ts.URL+"/graphs?name=web", "text/plain", streamEdges(60000, 3))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	checkHeap("upload")
	if st := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "web", Method: "gorder"}).ID); st.State != StateDone {
		t.Fatalf("order job ended %s (%s)", st.State, st.Error)
	}
	checkHeap("order job")

	src := 7
	postQuery(t, ts, query.Request{Graph: "web", Kernel: "BFS", Source: &src, Targets: []int{0}}, http.StatusOK)
	snap := metricsSnapshot(t, ts)
	for name, want := range map[string]int64{
		"gc_forced_ingest_total":  1,
		"gc_forced_order_total":   1,
		"gc_forced_repair_total":  0,
		"gc_forced_relabel_total": snap["query_relabel_builds_total"],
	} {
		if snap[name] != want {
			t.Errorf("%s = %d, want %d", name, snap[name], want)
		}
	}
	if snap["query_relabel_builds_total"] != 1 {
		t.Errorf("query_relabel_builds_total = %d, want 1", snap["query_relabel_builds_total"])
	}
}

// TestMemoryMetrics: /metrics carries the runtime's heap and collector
// figures and the process's peak resident set (where /proc has it), and
// the counters among them never go down between two scrapes.
func TestMemoryMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	keys := []string{"go_heap_objects_bytes", "go_heap_goal_bytes", "go_gc_cycles_total", "go_gc_forced_total"}
	for _, stage := range memstat.Stages() {
		keys = append(keys, "gc_forced_"+stage.String()+"_total")
	}
	if _, ok := memstat.PeakRSS(); ok {
		keys = append(keys, "process_peak_rss_bytes")
	}
	first := metricsSnapshot(t, ts)
	postGraph(t, ts, "ba", edgeListBytes(t, gen.BarabasiAlbert(500, 3, 4)))
	second := metricsSnapshot(t, ts)
	for _, k := range keys {
		a, okA := first[k]
		b, okB := second[k]
		if !okA || !okB {
			t.Fatalf("/metrics lacks %s", k)
		}
		if k == "go_heap_objects_bytes" || k == "go_heap_goal_bytes" {
			if b <= 0 {
				t.Errorf("%s = %d, want > 0", k, b)
			}
			continue
		}
		if b < a {
			t.Errorf("%s went down between scrapes: %d -> %d", k, a, b)
		}
	}
	if d := second["gc_forced_ingest_total"] - first["gc_forced_ingest_total"]; d != 1 {
		t.Errorf("an upload forced %d ingest collections, want 1", d)
	}
	if second["go_gc_forced_total"] <= first["go_gc_forced_total"] || second["go_gc_cycles_total"] <= first["go_gc_cycles_total"] {
		t.Errorf("the upload's collection is not in go_gc_forced_total (%d -> %d) or go_gc_cycles_total (%d -> %d)",
			first["go_gc_forced_total"], second["go_gc_forced_total"],
			first["go_gc_cycles_total"], second["go_gc_cycles_total"])
	}
}
