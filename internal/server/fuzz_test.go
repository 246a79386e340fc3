package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gorder/internal/gen"
	"gorder/internal/store"
)

// fuzzRoutes are the POST routes whose JSON bodies FuzzHTTPBodies
// feeds; the fuzzed route byte picks one.
var fuzzRoutes = []string{"/jobs", "/query", "/query/batch", "/graphs/g/edges"}

// FuzzHTTPBodies posts arbitrary bytes as the JSON body of the job,
// query, batch-query and edit routes. Every answer must be below 500,
// with one exception — a 504 query_timeout, which answers a deadline
// the body itself set (timeout_ms) — and every 4xx must carry the JSON
// error envelope with a code. Each input runs against its own small
// server (a 64-vertex graph "g" with a gorder artifact), so edits and
// jobs from earlier inputs cannot change what a later one sees and a
// failing input reproduces on its own.
func FuzzHTTPBodies(f *testing.F) {
	f.Add(uint8(0), []byte(`{"kind":"order","graph":"g","method":"rcm"}`))
	f.Add(uint8(1), []byte(`{"graph":"g","kernel":"BFS","source":1,"top":3,"targets":[0,5]}`))
	f.Add(uint8(2), []byte(`{"queries":[{"graph":"g","kernel":"PR","top":2},{"graph":"g","kernel":"SP","order":"natural"}]}`))
	f.Add(uint8(3), []byte(`{"add_nodes":1,"add":[{"from":64,"to":0}],"del":[{"from":0,"to":1}]}`))
	var base bytes.Buffer
	if err := gen.BarabasiAlbert(64, 3, 1).WriteEdgeList(&base); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		h := fuzzServer(t, base.Bytes())
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			if rec.Code == http.StatusGatewayTimeout && envelopeCode(rec.Body.Bytes()) == "query_timeout" {
				return
			}
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		if rec.Code >= 400 && envelopeCode(rec.Body.Bytes()) == "" {
			t.Fatalf("POST %s %q: status %d without an error envelope: %s", path, body, rec.Code, rec.Body)
		}
	})
}

// envelopeCode returns the code of a {"error":{"code":...}} body, or
// "" when body is not that envelope.
func envelopeCode(body []byte) string {
	var env struct {
		Error *apiError `json:"error"`
	}
	if json.Unmarshal(body, &env) != nil || env.Error == nil {
		return ""
	}
	return env.Error.Code
}

// fuzzServer starts a server over a fresh store holding graph "g"
// (parsed from base) and its gorder artifact, stopped at cleanup, and
// returns its handler.
func fuzzServer(t *testing.T, base []byte) http.Handler {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Pool:      PoolConfig{Workers: 1, QueueDepth: 4},
		Store:     st,
		MaxUpload: 64 << 10, // caps add_nodes at 8192
	})
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		st.Close()
	})
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/graphs?name=g", bytes.NewReader(base)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", rec.Code, rec.Body)
	}
	job, err := s.Pool.Submit(JobRequest{Kind: KindOrder, Graph: "g", Method: "gorder"})
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, _ := s.Pool.Get(job.ID)
		if st.State == StateDone {
			return h
		}
		if st.State == StateFailed || st.State == StateCanceled {
			t.Fatalf("gorder job ended %s (%s)", st.State, st.Error)
		}
		time.Sleep(time.Millisecond)
	}
}
