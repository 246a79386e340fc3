package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestJobTableBounded: after maxFinishedJobs+100 jobs the pool keeps at
// most maxFinishedJobs finished records, forgetting the oldest finished
// first and never a running job, and GET /jobs/{id} of a forgotten job
// answers 404 job_not_found in the JSON error envelope.
func TestJobTableBounded(t *testing.T) {
	const total = maxFinishedJobs + 100
	s := New(Config{Store: openTestStore(t), Pool: PoolConfig{Workers: 2, QueueDepth: total}})
	held, gate := make(chan struct{}), make(chan struct{})
	s.Pool.exec = func(ctx context.Context, req JobRequest, found foundFunc) (map[string]float64, error) {
		if req.Graph == "held" {
			close(held)
			select {
			case <-gate:
			case <-ctx.Done():
			}
		}
		return nil, nil
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	released := false
	t.Cleanup(func() {
		if !released {
			close(gate)
		}
		ts.Close()
		s.DrainAndPersist(5*time.Second, "")
	})

	submit := func(graph string) JobStatus {
		t.Helper()
		st, err := s.Pool.Submit(JobRequest{Kind: KindEval, Graph: graph})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	first := submit("held")
	<-held
	var last JobStatus
	for i := 1; i < total; i++ {
		last = submit("g")
	}
	waitDone := func(id string) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			if st, ok := s.Pool.Get(id); ok && st.State == StateDone {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", id)
			}
		}
	}
	// The free worker runs the rest in submission order, so the last
	// one finishing means every other has.
	waitDone(last.ID)
	jobIDAt := func(seq int) string { return fmt.Sprintf("job-%06d", seq) }
	tableSize := func() int {
		s.Pool.mu.Lock()
		defer s.Pool.mu.Unlock()
		return len(s.Pool.jobs)
	}

	// total-1 jobs finished while the first runs: the oldest 99 are
	// forgotten, the running one is kept.
	if n := tableSize(); n != maxFinishedJobs+1 {
		t.Fatalf("table holds %d jobs, want %d finished + 1 running", n, maxFinishedJobs)
	}
	if st, ok := s.Pool.Get(first.ID); !ok || st.State != StateRunning {
		t.Fatalf("running job %s: kept %v, state %q", first.ID, ok, st.State)
	}
	if _, ok := s.Pool.Get(jobIDAt(total - maxFinishedJobs)); ok {
		t.Errorf("job %s, the newest of the oldest finished, is still kept", jobIDAt(total-maxFinishedJobs))
	}
	if _, ok := s.Pool.Get(jobIDAt(total - maxFinishedJobs + 1)); !ok {
		t.Errorf("job %s, the oldest that fits, was forgotten", jobIDAt(total-maxFinishedJobs+1))
	}

	resp, err := http.Get(ts.URL + "/jobs/" + jobIDAt(2))
	if err != nil {
		t.Fatal(err)
	}
	envelope := decodeJSON[map[string]apiError](t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || envelope["error"].Code != "job_not_found" {
		t.Errorf("GET a forgotten job: status %d code %q, want 404 job_not_found", resp.StatusCode, envelope["error"].Code)
	}

	// Once the first job finishes it is the newest finished record and
	// pushes out the oldest kept one.
	close(gate)
	released = true
	waitDone(first.ID)
	if n := tableSize(); n != maxFinishedJobs {
		t.Errorf("table holds %d jobs, want %d", n, maxFinishedJobs)
	}
	if _, ok := s.Pool.Get(jobIDAt(total - maxFinishedJobs + 1)); ok {
		t.Errorf("job %s outlived a newer finished job", jobIDAt(total-maxFinishedJobs+1))
	}
	list := s.Pool.List()
	if len(list) != maxFinishedJobs || list[0].ID != first.ID || list[len(list)-1].ID != last.ID {
		t.Errorf("GET /jobs lists %d jobs from %s to %s, want %d from %s to %s",
			len(list), list[0].ID, list[len(list)-1].ID, maxFinishedJobs, first.ID, last.ID)
	}
}
