package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"gorder/internal/gen"
	"gorder/internal/order"
	"gorder/internal/registry"
)

// getPermutation downloads a job's permutation, asserting the status,
// and returns the body.
func getPermutation(t *testing.T, ts *httptest.Server, id string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/permutation")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET /jobs/%s/permutation: status %d, want %d: %s", id, resp.StatusCode, wantStatus, body)
	}
	return body
}

// permBytes is perm's download encoding.
func permBytes(t *testing.T, perm order.Permutation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := perm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// heldPermutations counts the permutation entries finished jobs hold
// in the job table, and the jobs that hold an artifact key instead.
func heldPermutations(s *Server) (entries, artifacts int) {
	s.Pool.mu.Lock()
	defer s.Pool.mu.Unlock()
	for _, j := range s.Pool.jobs {
		entries += len(j.perm)
		if j.art != nil {
			artifacts++
		}
	}
	return entries, artifacts
}

// TestJobPermutationReadBackFromStore: order jobs on distinct graphs —
// computed, or answered from the artifact cache — keep only their
// artifact's key, no permutation bytes; yet each download is byte for
// byte the permutation the ordering computes, and an eval job scores it
// through of_job exactly as the order job did.
func TestJobPermutationReadBackFromStore(t *testing.T) {
	const graphs = 5
	s, ts := newStoreServer(t, t.TempDir(), 0)
	var ids []string
	for i := 0; i < graphs; i++ {
		g := gen.BarabasiAlbert(300+50*i, 4, uint64(i+1))
		name := fmt.Sprintf("g%d", i)
		postGraph(t, ts, name, edgeListBytes(t, g))
		want, err := registry.Compute(context.Background(), g, "gorder", registry.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The second job is an artifact-cache hit.
		for range 2 {
			st := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: name, Method: "gorder"}).ID)
			if st.State != StateDone {
				t.Fatalf("order job on %s ended %s (%s)", name, st.State, st.Error)
			}
			if got := getPermutation(t, ts, st.ID, http.StatusOK); !bytes.Equal(got, permBytes(t, want)) {
				t.Fatalf("%s: job %s downloads %d bytes that differ from the computed permutation's %d",
					name, st.ID, len(got), len(permBytes(t, want)))
			}
			ev := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindEval, Graph: name, OfJob: st.ID}).ID)
			if ev.State != StateDone || ev.Metrics["score_F"] != st.Metrics["score_F"] {
				t.Fatalf("%s: eval of %s ended %s (%s) with score_F %v, order job %v",
					name, st.ID, ev.State, ev.Error, ev.Metrics["score_F"], st.Metrics["score_F"])
			}
			ids = append(ids, st.ID)
		}
	}
	if entries, arts := heldPermutations(s); entries != 0 || arts != len(ids) {
		t.Fatalf("job table holds %d permutation entries and %d artifact keys after %d order jobs, want 0 and %d",
			entries, arts, len(ids), len(ids))
	}
}

// TestJobPermutationReplacedIsGone: once a repair replaces the artifact
// a done job's permutation was stored as, the download answers 410
// permutation_replaced and an eval of the job fails — never serving the
// replacement. A job whose artifact could not be persisted keeps its
// permutation in memory and still serves it.
func TestJobPermutationReplacedIsGone(t *testing.T) {
	st := openTestStore(t)
	s, ts := newTestServer(t, Config{Pool: PoolConfig{Workers: 1, QueueDepth: 8}, Store: st})
	g := gen.BarabasiAlbert(400, 4, 3)
	info := postGraph(t, ts, "soc", edgeListBytes(t, g))
	job := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "soc", Method: "gorder"}).ID)
	if job.State != StateDone {
		t.Fatalf("order job ended %s (%s)", job.State, job.Error)
	}
	getPermutation(t, ts, job.ID, http.StatusOK)
	method, optKey, ok := st.LatestOrder(info.ID, "gorder")
	if !ok {
		t.Fatal("the order job stored no artifact")
	}
	// What a repair does: store another permutation under the same key.
	repaired := order.Identity(g.NumNodes())
	repaired[0], repaired[1] = 1, 0
	if err := st.PutOrder(info.ID, method, optKey, repaired); err != nil {
		t.Fatal(err)
	}
	if body := getPermutation(t, ts, job.ID, http.StatusGone); !bytes.Contains(body, []byte(`"permutation_replaced"`)) {
		t.Fatalf("410 body %s lacks the permutation_replaced code", body)
	}
	if ev := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindEval, Graph: "soc", OfJob: job.ID}).ID); ev.State != StateFailed {
		t.Fatalf("eval of a replaced permutation ended %s, want failed", ev.State)
	}

	// Orders can no longer be persisted: the next job keeps its own.
	orders := filepath.Join(st.Dir(), "orders")
	if err := os.RemoveAll(orders); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orders, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	kept := waitJob(t, ts, postJob(t, ts, JobRequest{Kind: KindOrder, Graph: "soc", Method: "gorder", Window: 3}).ID)
	if kept.State != StateDone {
		t.Fatalf("order job without a store ended %s (%s)", kept.State, kept.Error)
	}
	want, err := registry.Compute(context.Background(), g, "gorder", registry.Options{Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := getPermutation(t, ts, kept.ID, http.StatusOK); !bytes.Equal(got, permBytes(t, want)) {
		t.Fatal("an unpersisted job's download differs from the computed permutation")
	}
	if entries, _ := heldPermutations(s); entries != g.NumNodes() {
		t.Fatalf("job table holds %d permutation entries, want the unpersisted job's %d", entries, g.NumNodes())
	}
}
