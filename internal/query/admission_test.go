package query

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"gorder/internal/registry"
)

// bfsFrom is a gorder-ordered BFS request from source s.
func bfsFrom(s int) Request {
	return Request{Graph: "web", Kernel: "BFS", Source: &s}
}

// TestAdmissionOneOffSourcesNotCached: per-source results that miss
// once are answered but never enter the result cache.
func TestAdmissionOneOffSourcesNotCached(t *testing.T) {
	ex, _, _ := newTestExec(t, Config{})
	const n = 50
	for s := 0; s < n; s++ {
		resp, qerr := ex.Run(context.Background(), bfsFrom(s))
		if qerr != nil {
			t.Fatal(qerr)
		}
		if resp.CacheHit {
			t.Fatalf("source %d: first query reported a cache hit", s)
		}
	}
	if b := ex.ResultCacheBytes(); b != 0 {
		t.Errorf("result cache holds %d bytes after %d one-off sources, want 0", b, n)
	}
	if ex.CacheDeferred() != n || ex.CacheAdmitted() != 0 {
		t.Errorf("deferred=%d admitted=%d, want %d and 0", ex.CacheDeferred(), ex.CacheAdmitted(), n)
	}
}

// TestAdmissionSecondMissAdmits: a repeated source goes miss, miss,
// hit, paying exactly two kernel runs.
func TestAdmissionSecondMissAdmits(t *testing.T) {
	ex, _, _ := newTestExec(t, Config{})
	for i, wantHit := range []bool{false, false, true} {
		resp, qerr := ex.Run(context.Background(), bfsFrom(42))
		if qerr != nil {
			t.Fatal(qerr)
		}
		if resp.CacheHit != wantHit {
			t.Fatalf("query %d: cache hit %v, want %v", i+1, resp.CacheHit, wantHit)
		}
	}
	if ex.KernelRuns() != 2 {
		t.Errorf("kernel runs = %d, want 2", ex.KernelRuns())
	}
	if ex.CacheDeferred() != 1 || ex.CacheAdmitted() != 1 {
		t.Errorf("deferred=%d admitted=%d, want 1 and 1", ex.CacheDeferred(), ex.CacheAdmitted())
	}
}

// TestAdmissionWholeGraphSecondUseAdmits: a whole-graph result goes
// through the doorkeeper too. Its first miss runs the kernel and
// materializes the result without caching it; the second use is a
// materialized hit, which caches it; the third is an in-memory hit. The
// kernel runs once, and all three answers are the same.
func TestAdmissionWholeGraphSecondUseAdmits(t *testing.T) {
	ex, st, _ := newTestExec(t, Config{})
	var got [3]*Response
	for i := range got {
		resp, qerr := ex.Run(context.Background(), Request{Graph: "web", Kernel: "PR", Top: 10})
		if qerr != nil {
			t.Fatal(qerr)
		}
		got[i] = resp
		switch i {
		case 0:
			if resp.CacheHit || ex.ResultCacheBytes() != 0 || st.ResultCount() != 1 {
				t.Fatalf("first PR: hit=%v, result cache %d bytes, %d materialized; want a miss, 0, 1",
					resp.CacheHit, ex.ResultCacheBytes(), st.ResultCount())
			}
		case 1:
			if !resp.CacheHit || !resp.Materialized || ex.ResultCacheEntries() != 1 {
				t.Fatalf("second PR: hit=%v materialized=%v, %d cached; want a materialized hit that caches it",
					resp.CacheHit, resp.Materialized, ex.ResultCacheEntries())
			}
		case 2:
			if !resp.CacheHit || resp.Materialized || ex.CacheHits() != 1 {
				t.Fatalf("third PR: hit=%v materialized=%v, %d in-memory hits; want an in-memory hit",
					resp.CacheHit, resp.Materialized, ex.CacheHits())
			}
		}
	}
	if ex.KernelRuns() != 1 || ex.MaterializedHits() != 1 {
		t.Errorf("PR x3: runs=%d materialized hits=%d, want 1 and 1", ex.KernelRuns(), ex.MaterializedHits())
	}
	if ex.CacheDeferred() != 1 || ex.CacheAdmitted() != 0 {
		t.Errorf("PR x3: deferred=%d admitted=%d, want 1 and 0", ex.CacheDeferred(), ex.CacheAdmitted())
	}
	for i := 1; i < 3; i++ {
		if !reflect.DeepEqual(got[i].Values, got[0].Values) || !reflect.DeepEqual(got[i].Summary, got[0].Summary) {
			t.Errorf("PR answer %d differs from the first", i+1)
		}
	}
}

// TestAdmissionRecurringKeySurvivesFlood: with a budget of about one
// BFS vector, a key requested twice stays cached through a flood of
// one-off sources whose vectors together exceed the budget many times.
func TestAdmissionRecurringKeySurvivesFlood(t *testing.T) {
	ex, _, g := newTestExec(t, Config{ResultBudget: 2048})
	ctx := context.Background()
	for range 2 {
		if _, qerr := ex.Run(ctx, bfsFrom(0)); qerr != nil {
			t.Fatal(qerr)
		}
	}
	for s := 1; s < g.NumNodes(); s++ {
		if _, qerr := ex.Run(ctx, bfsFrom(s)); qerr != nil {
			t.Fatal(qerr)
		}
	}
	runs := ex.KernelRuns()
	resp, qerr := ex.Run(ctx, bfsFrom(0))
	if qerr != nil {
		t.Fatal(qerr)
	}
	if !resp.CacheHit || ex.KernelRuns() != runs {
		t.Fatalf("recurring key evicted by one-off sources: hit=%v runs %d -> %d", resp.CacheHit, runs, ex.KernelRuns())
	}
}

// TestAdmissionDeferredMatchesAdmitted: over the reverse "gorder"
// relabeling, a result served without admission (read through the
// permutation) carries the same targets and top-K as the admitted
// result and its cache hit, and all match the natural-order oracle.
func TestAdmissionDeferredMatchesAdmitted(t *testing.T) {
	ex, _, g := newTestExec(t, Config{})
	all := make([]int, g.NumNodes())
	for v := range all {
		all[v] = v
	}
	for _, kernel := range []string{"BFS", "SP"} {
		for i, shape := range []Request{{Targets: all}, {Top: 25}} {
			src := 10 + i
			want := directResult(t, g, kernel, registry.KernelParams{SPSource: src})
			var got [3]*Response // deferred, admitted, hit
			for j := range got {
				req := shape
				req.Graph, req.Kernel, req.Source = "web", kernel, &src
				resp, qerr := ex.Run(context.Background(), req)
				if qerr != nil {
					t.Fatal(qerr)
				}
				if resp.Ordering.Method != "gorder" {
					t.Fatalf("%s: served over %+v, want the gorder artifact", kernel, resp.Ordering)
				}
				got[j] = resp
			}
			if !got[2].CacheHit {
				t.Fatalf("%s source %d: third query missed", kernel, src)
			}
			for j := 1; j < 3; j++ {
				if !reflect.DeepEqual(got[j].Values, got[0].Values) || !reflect.DeepEqual(got[j].Summary, got[0].Summary) {
					t.Errorf("%s source %d: response %d differs from the deferred one", kernel, src, j)
				}
			}
			if len(got[0].Values) == 0 {
				t.Fatalf("%s source %d: no values", kernel, src)
			}
			for _, v := range got[0].Values {
				if v.Value != want.Value(v.Node) {
					t.Fatalf("%s source %d: vertex %d = %v, oracle %v", kernel, src, v.Node, v.Value, want.Value(v.Node))
				}
			}
		}
	}
}

// TestAdmissionConcurrent: queries racing on the shared doorkeeper
// stay correct and account every per-source miss exactly once.
func TestAdmissionConcurrent(t *testing.T) {
	ex, _, g := newTestExec(t, Config{})
	const workers, per = 4, 40
	// Even steps share eight recurring sources; odd steps are one-off
	// sources, distinct per worker.
	source := func(w, i int) int {
		if i%2 == 0 {
			return (i % 16) * 3
		}
		return 100 + w*per + i
	}
	oracle := make(map[int]registry.KernelResult)
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			src := source(w, i)
			if _, ok := oracle[src]; !ok {
				oracle[src] = directResult(t, g, "SP", registry.KernelParams{SPSource: src})
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				src := source(w, i)
				resp, qerr := ex.Run(context.Background(), Request{Graph: "web", Kernel: "SP", Source: &src, Targets: []int{0, 299}})
				if qerr != nil {
					t.Error(qerr)
					return
				}
				want := oracle[src]
				for _, v := range resp.Values {
					if v.Value != want.Value(v.Node) {
						t.Errorf("source %d vertex %d = %v, oracle %v", src, v.Node, v.Value, want.Value(v.Node))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if sum := ex.CacheAdmitted() + ex.CacheDeferred(); sum != ex.CacheMisses() {
		t.Errorf("admitted %d + deferred %d = %d, want the %d misses",
			ex.CacheAdmitted(), ex.CacheDeferred(), sum, ex.CacheMisses())
	}
	if ex.CacheHits() == 0 {
		t.Error("recurring sources never hit the cache")
	}
}
