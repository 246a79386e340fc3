package query

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
	"gorder/internal/registry"
	"gorder/internal/store"
)

// fakeSource serves fixed graphs by name or digest, standing in for
// the server's registry. onStat, when set, runs after each Stat —
// tests use it to advance a name to a new version mid-request, the
// interleave a concurrent edit produces.
type fakeSource struct {
	graphs   map[string]*graph.Graph // digest -> graph
	names    map[string]string       // name -> digest
	onStat   func()
	mu       sync.Mutex
	resolved []string // the digest of every Resolve, in order
}

func newFakeSource() *fakeSource {
	return &fakeSource{graphs: map[string]*graph.Graph{}, names: map[string]string{}}
}

func (f *fakeSource) add(name, digest string, g *graph.Graph) {
	f.graphs[digest] = g
	f.names[name] = digest
}

func (f *fakeSource) resolve(ref string) (string, *graph.Graph, bool) {
	if g, ok := f.graphs[ref]; ok {
		return ref, g, true
	}
	if d, ok := f.names[ref]; ok {
		return d, f.graphs[d], true
	}
	return "", nil, false
}

func (f *fakeSource) Stat(ref string) (string, int, bool) {
	d, g, ok := f.resolve(ref)
	if !ok {
		return "", 0, false
	}
	if f.onStat != nil {
		f.onStat()
	}
	return d, g.NumNodes(), true
}

func (f *fakeSource) Resolve(ref string) (*graph.Graph, string, bool) {
	d, g, ok := f.resolve(ref)
	f.mu.Lock()
	f.resolved = append(f.resolved, d)
	f.mu.Unlock()
	return g, d, ok
}

// reversePerm relabels vertex u to n-1-u: a drastic reordering, so any
// forgotten source/vector mapping fails loudly.
func reversePerm(n int) order.Permutation {
	p := make(order.Permutation, n)
	for i := range p {
		p[i] = graph.NodeID(n - 1 - i)
	}
	return p
}

// openTestStore opens an empty store under a fresh test temp dir,
// closed at cleanup.
func openTestStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// newTestExec builds an executor over one 300-vertex graph named
// "web", with a store (rooted in a temp dir) holding a reverse-order
// "gorder" artifact.
func newTestExec(t *testing.T, cfg Config) (*Executor, *store.Store, *graph.Graph) {
	t.Helper()
	g := gen.BarabasiAlbert(300, 3, 5)
	ex, st := execOver(t, cfg, g)
	return ex, st, g
}

// execOver builds an executor over g, named "web" with digest "d1", and
// a store holding a reverse-order "gorder" artifact for it.
func execOver(t *testing.T, cfg Config, g *graph.Graph) (*Executor, *store.Store) {
	t.Helper()
	src := newFakeSource()
	src.add("web", "d1", g)
	st := openTestStore(t)
	if err := st.PutGraph("d1", "web", g, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.PutOrder("d1", "gorder", "abcd", reversePerm(g.NumNodes())); err != nil {
		t.Fatal(err)
	}
	cfg.Source, cfg.Store = src, st
	return New(cfg), st
}

// directResult runs a kernel's Query straight on the natural graph —
// the parity oracle every executor path must match.
func directResult(t *testing.T, g *graph.Graph, kernel string, p registry.KernelParams) registry.KernelResult {
	t.Helper()
	k, ok := registry.LookupKernel(kernel)
	if !ok || k.Query == nil {
		t.Fatalf("kernel %s not queryable", kernel)
	}
	if p.SPSource < 0 {
		for _, f := range k.QueryConsumes {
			if f == registry.KOptSource {
				p.SPSource = int(registry.HubSource(g))
			}
		}
	}
	res, err := k.Query(context.Background(), g, p, new(registry.QueryScratch))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestQueryOrderingInvariance is the tier's core correctness property:
// every queryable kernel returns the same answer (FP tolerance for PR)
// whether served over the natural order or a stored reordering.
func TestQueryOrderingInvariance(t *testing.T) {
	ex, _, g := newTestExec(t, Config{})
	ctx := context.Background()
	for _, kernel := range registry.QueryableKernelNames() {
		natural, qerr := ex.Run(ctx, Request{Graph: "web", Kernel: kernel, Order: "natural"})
		if qerr != nil {
			t.Fatalf("%s natural: %v", kernel, qerr)
		}
		// A second executor so the result cache cannot mask a broken
		// ordered path.
		ex2, _, _ := newTestExec(t, Config{})
		ordered, qerr := ex2.Run(ctx, Request{Graph: "web", Kernel: kernel, Order: "gorder"})
		if qerr != nil {
			t.Fatalf("%s ordered: %v", kernel, qerr)
		}
		if natural.Ordering.Method != "natural" || ordered.Ordering.Method != "gorder" {
			t.Fatalf("%s orderings = %q vs %q", kernel,
				natural.Ordering.Method, ordered.Ordering.Method)
		}
		if len(natural.Summary) == 0 {
			t.Fatalf("%s: empty summary", kernel)
		}
		for key, nv := range natural.Summary {
			if ov := ordered.Summary[key]; math.Abs(nv-ov) > 1e-9*(1+math.Abs(nv)) {
				t.Errorf("%s summary %q: natural %v vs ordered %v", kernel, key, nv, ov)
			}
		}
		// Per-vertex parity through the direct oracle.
		want := directResult(t, g, kernel, registry.KernelParams{SPSource: -1})
		if want.VectorLen() == 0 {
			continue
		}
		for _, resp := range []*Response{natural, ordered} {
			vals, qerr := ex.Run(ctx, Request{Graph: "web", Kernel: kernel,
				Order: resp.Ordering.Method, Targets: []int{0, 1, 150, 299}})
			if qerr != nil {
				t.Fatalf("%s targets: %v", kernel, qerr)
			}
			for _, v := range vals.Values {
				if wv := want.Value(v.Node); math.Abs(v.Value-wv) > 1e-12*(1+math.Abs(wv)) {
					t.Errorf("%s vertex %d via %s: %v, want %v",
						kernel, v.Node, resp.Ordering.Method, v.Value, wv)
				}
			}
		}
	}
}

// TestQueryColdWarm is the CI smoke: the first query computes, the
// repeat is a cache hit with zero new kernel runs.
func TestQueryColdWarm(t *testing.T) {
	ex, _, _ := newTestExec(t, Config{})
	ctx := context.Background()
	cold, qerr := ex.Run(ctx, Request{Graph: "web", Kernel: "PR"})
	if qerr != nil {
		t.Fatal(qerr)
	}
	if cold.CacheHit || ex.KernelRuns() != 1 {
		t.Fatalf("cold: hit=%v runs=%d", cold.CacheHit, ex.KernelRuns())
	}
	// The empty-order request resolved the stored artifact.
	if cold.Ordering.Method != "gorder" || cold.Ordering.Source != "latest" {
		t.Fatalf("cold ordering = %+v, want latest gorder", cold.Ordering)
	}
	warm, qerr := ex.Run(ctx, Request{Graph: "web", Kernel: "PR"})
	if qerr != nil {
		t.Fatal(qerr)
	}
	if !warm.CacheHit || ex.KernelRuns() != 1 {
		t.Fatalf("warm: hit=%v runs=%d (kernel recomputed)", warm.CacheHit, ex.KernelRuns())
	}
	if warm.Ordering.Source != "cache" || warm.Ordering.Method != "gorder" {
		t.Fatalf("warm ordering = %+v", warm.Ordering)
	}
	if !reflect.DeepEqual(cold.Summary, warm.Summary) {
		t.Error("cached summary differs from computed")
	}
}

func TestQueryOrderingSelection(t *testing.T) {
	ex, st, g := newTestExec(t, Config{})
	ctx := context.Background()

	// Explicit method with no artifact → 409, never a silent fallback
	// and never an inline ordering computation.
	if _, qerr := ex.Run(ctx, Request{Graph: "web", Kernel: "BFS", Order: "rcm"}); qerr == nil ||
		qerr.Status != 409 || qerr.Code != "order_not_ready" {
		t.Fatalf("missing artifact error = %+v", qerr)
	}
	// Unknown method → 400 at submit time.
	if _, qerr := ex.Run(ctx, Request{Graph: "web", Kernel: "BFS", Order: "zorder"}); qerr == nil ||
		qerr.Status != 400 || qerr.Code != "unknown_order" {
		t.Fatalf("unknown order error = %+v", qerr)
	}
	// A fresher artifact becomes the empty-order default.
	if err := st.PutOrder("d1", "rcm", "ffff", reversePerm(g.NumNodes())); err != nil {
		t.Fatal(err)
	}
	resp, qerr := ex.Run(ctx, Request{Graph: "web", Kernel: "BFS"})
	if qerr != nil {
		t.Fatal(qerr)
	}
	if resp.Ordering.Method != "rcm" || resp.Ordering.Source != "latest" {
		t.Fatalf("ordering = %+v, want latest rcm", resp.Ordering)
	}
}

func TestQueryValidation(t *testing.T) {
	ex, _, g := newTestExec(t, Config{})
	ctx := context.Background()
	n := g.NumNodes()
	src := func(v int) *int { return &v }
	cases := []struct {
		name   string
		req    Request
		status int
		code   string
	}{
		{"unknown kernel", Request{Graph: "web", Kernel: "Frobnicate"}, 404, "unknown_kernel"},
		{"order-dependent kernel", Request{Graph: "web", Kernel: "DFS"}, 400, "kernel_not_queryable"},
		{"unknown graph", Request{Graph: "nope", Kernel: "BFS"}, 404, "unknown_graph"},
		{"source too large", Request{Graph: "web", Kernel: "BFS", Source: src(n)}, 400, "source_out_of_range"},
		{"negative explicit source ok as hub", Request{Graph: "web", Kernel: "SP", Source: src(-5)}, 0, ""},
		{"target out of range", Request{Graph: "web", Kernel: "BFS", Targets: []int{n}}, 400, "target_out_of_range"},
		{"top too large", Request{Graph: "web", Kernel: "PR", Top: MaxTop + 1}, 400, "invalid_params"},
		{"negative iters", Request{Graph: "web", Kernel: "PR", Iters: -3}, 400, "invalid_params"},
	}
	for _, tc := range cases {
		_, qerr := ex.Run(ctx, tc.req)
		if tc.status == 0 {
			if qerr != nil {
				t.Errorf("%s: unexpected error %+v", tc.name, qerr)
			}
			continue
		}
		if qerr == nil || qerr.Status != tc.status || qerr.Code != tc.code {
			t.Errorf("%s: error = %+v, want %d/%s", tc.name, qerr, tc.status, tc.code)
		}
	}
}

// TestBatchCoalescesGroupWork: a batch of per-source queries against
// one (graph, ordering) builds the relabeled graph once and matches
// the direct oracle per source.
func TestBatchCoalescesGroupWork(t *testing.T) {
	ex, _, g := newTestExec(t, Config{})
	reqs := make([]Request, 8)
	for i := range reqs {
		s := i * 7
		reqs[i] = Request{Graph: "web", Kernel: "BFS", Source: &s, Order: "gorder",
			Targets: []int{0, 299}}
	}
	items := ex.RunBatch(context.Background(), reqs)
	if len(items) != len(reqs) {
		t.Fatalf("items = %d, want %d", len(items), len(reqs))
	}
	for i, it := range items {
		if it.Error != nil {
			t.Fatalf("item %d: %+v", i, it.Error)
		}
		if it.Response.Ordering.Method != "gorder" {
			t.Fatalf("item %d served over %q", i, it.Response.Ordering.Method)
		}
		want := directResult(t, g, "BFS", registry.KernelParams{SPSource: i * 7})
		for _, v := range it.Response.Values {
			if v.Value != want.Value(v.Node) {
				t.Errorf("item %d vertex %d = %v, want %v", i, v.Node, v.Value, want.Value(v.Node))
			}
		}
	}
	if ex.RelabelBuilds() != 1 {
		t.Errorf("relabel builds = %d, want 1 for a single-group batch", ex.RelabelBuilds())
	}
	if ex.KernelRuns() != int64(len(reqs)) {
		t.Errorf("kernel runs = %d, want %d", ex.KernelRuns(), len(reqs))
	}
	// Mixed batches fail per item, not wholesale.
	bad := []Request{{Graph: "web", Kernel: "BFS"}, {Graph: "web", Kernel: "Nope"}}
	items = ex.RunBatch(context.Background(), bad)
	if items[0].Error != nil || items[1].Error == nil {
		t.Errorf("mixed batch: item0 err=%+v item1 err=%+v", items[0].Error, items[1].Error)
	}
}

func TestResultCodecRoundTrip(t *testing.T) {
	in := &cachedResult{
		res: registry.KernelResult{
			Kernel:  "PR",
			Summary: map[string]float64{"sum": 1.25, "max": 0.031, "iters": 20},
			Floats:  []float64{0.5, 0.25, 0.125, 0.0625},
		},
		method: "gorder", optKey: "abcd",
	}
	out, err := decodeResult(encodeResult(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", in, out)
	}
	for _, res := range []registry.KernelResult{
		{Kernel: "BFS", Summary: map[string]float64{"ecc": 4}, Int32s: []int32{0, 1, -1}},
		{Kernel: "NQ", Summary: map[string]float64{}, Int64s: []int64{9, 1 << 40}},
		{Kernel: "Tri", Summary: map[string]float64{"triangles": 12}},
	} {
		got, err := decodeResult(encodeResult(&cachedResult{res: res}))
		if err != nil {
			t.Fatalf("%s: %v", res.Kernel, err)
		}
		if !reflect.DeepEqual(&cachedResult{res: res}, got) {
			t.Errorf("%s round trip mismatch", res.Kernel)
		}
	}
	// Corruption in any region must error, never panic or misread.
	blob := encodeResult(in)
	for _, mut := range []func([]byte) []byte{
		func(b []byte) []byte { return b[:len(b)-3] },       // truncated
		func(b []byte) []byte { b[0] = 'X'; return b },      // magic
		func(b []byte) []byte { b[6] = 0xFF; return b },     // string length
		func(b []byte) []byte { return append(b, 1, 2, 3) }, // trailing junk
		// The u32 vector length sits just before the 4 float64s.
		func(b []byte) []byte { b[len(b)-33] = 0xEE; return b },
	} {
		b := append([]byte(nil), blob...)
		if _, err := decodeResult(mut(b)); err == nil {
			t.Error("corrupt blob decoded cleanly")
		}
	}
}

// TestMaterializedResultLifecycle: whole-graph results evicted from
// the in-memory LRU reload from the store with correct bytes; a
// corrupt store blob is dropped and recomputed.
func TestMaterializedResultLifecycle(t *testing.T) {
	// A budget that holds exactly one PR-sized result, so the second
	// kernel's result evicts the first. The second is NQ, whose int64
	// vector is as wide as PR's: Kcore's core numbers are cached at one
	// byte per vertex and would fit beside PR.
	ex, st, _ := newTestExec(t, Config{ResultBudget: 4000})
	ctx := context.Background()
	first, qerr := ex.Run(ctx, Request{Graph: "web", Kernel: "PR", Targets: []int{3}})
	if qerr != nil {
		t.Fatal(qerr)
	}
	if st.ResultCount() != 1 {
		t.Fatalf("result artifacts = %d, want 1 after a whole-graph query", st.ResultCount())
	}
	if _, qerr := ex.Run(ctx, Request{Graph: "web", Kernel: "NQ"}); qerr != nil {
		t.Fatal(qerr)
	}
	// PR was evicted from the LRU; the repeat must be served from the
	// materialized artifact, not recomputed.
	runs := ex.KernelRuns()
	again, qerr := ex.Run(ctx, Request{Graph: "web", Kernel: "PR", Targets: []int{3}})
	if qerr != nil {
		t.Fatal(qerr)
	}
	if ex.KernelRuns() != runs {
		t.Fatalf("kernel recomputed despite materialized artifact")
	}
	if !again.CacheHit || !again.Materialized {
		t.Fatalf("reload flags: hit=%v materialized=%v", again.CacheHit, again.Materialized)
	}
	if again.Values[0] != first.Values[0] || again.Ordering.Method != first.Ordering.Method {
		t.Fatalf("disk reload differs: %+v vs %+v", again, first)
	}

	// Corrupt the artifact on disk: the next cold read recomputes and
	// re-materializes, mirroring the store's corrupt-graph behavior.
	entries, err := os.ReadDir(filepath.Join(st.Dir(), "results"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.WriteFile(filepath.Join(st.Dir(), "results", e.Name()),
			[]byte("bitrot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ex2, _, _ := newTestExec(t, Config{})
	ex2.cfg.Store = st // point the fresh executor at the corrupted store
	recomputed, qerr := ex2.Run(ctx, Request{Graph: "d1", Kernel: "PR", Targets: []int{3}})
	if qerr != nil {
		t.Fatal(qerr)
	}
	if recomputed.CacheHit || ex2.KernelRuns() == 0 {
		t.Fatalf("corrupt artifact served: hit=%v runs=%d", recomputed.CacheHit, ex2.KernelRuns())
	}
	if recomputed.Values[0].Value != first.Values[0].Value {
		t.Errorf("recomputed value %v != original %v", recomputed.Values[0], first.Values[0])
	}
	if st.ResultCount() == 0 {
		t.Error("recomputed result not re-materialized")
	}
}

func TestTopKSelection(t *testing.T) {
	ex, _, g := newTestExec(t, Config{})
	// Natural order, so values match the oracle bit for bit (an ordered
	// run would differ by FP summation order — covered elsewhere).
	resp, qerr := ex.Run(context.Background(),
		Request{Graph: "web", Kernel: "PR", Top: 5, Order: "natural"})
	if qerr != nil {
		t.Fatal(qerr)
	}
	if len(resp.Values) != 5 {
		t.Fatalf("top-5 returned %d values", len(resp.Values))
	}
	want := directResult(t, g, "PR", registry.KernelParams{})
	for i, v := range resp.Values {
		if v.Value != want.Value(v.Node) {
			t.Errorf("top[%d] node %d = %v, want %v", i, v.Node, v.Value, want.Value(v.Node))
		}
		if i > 0 && v.Value > resp.Values[i-1].Value {
			t.Errorf("top-K not descending at %d", i)
		}
	}
	// No vertex outside the selection beats the cutoff.
	cutoff := resp.Values[len(resp.Values)-1].Value
	selected := map[int]bool{}
	for _, v := range resp.Values {
		selected[v.Node] = true
	}
	for v := 0; v < g.NumNodes(); v++ {
		if !selected[v] && want.Value(v) > cutoff {
			t.Fatalf("vertex %d (%v) beats the top-K cutoff %v", v, want.Value(v), cutoff)
		}
	}
}

// TestQueryServesPinnedVersionDuringEdit: runOne pins a digest via
// Stat at admission; if a concurrent edit advances the name before
// the graph loads, the query must load the pinned version by its
// immutable ID and answer from that snapshot instead of 404ing — and
// never load the new version, which it would only discard.
func TestQueryServesPinnedVersionDuringEdit(t *testing.T) {
	g1 := gen.BarabasiAlbert(300, 3, 5)
	g2 := gen.BarabasiAlbert(400, 3, 6)
	src := newFakeSource()
	src.add("web", "d1", g1)
	src.graphs["d2"] = g2
	// The "edit" lands between the admission Stat and the graph load:
	// every Stat on "web" repoints the name at the new version.
	src.onStat = func() { src.names["web"] = "d2" }
	ex := New(Config{Source: src, Store: openTestStore(t)})

	source := 0
	resp, qerr := ex.Run(context.Background(), Request{Graph: "web", Kernel: "bfs", Source: &source})
	if qerr != nil {
		t.Fatalf("query during version advance: %d %s: %s", qerr.Status, qerr.Code, qerr.Message)
	}
	if resp.Graph != "d1" {
		t.Fatalf("served digest %q, want the pinned version d1", resp.Graph)
	}
	if !slices.Equal(src.resolved, []string{"d1"}) {
		t.Fatalf("the pinned query resolved %v, want only the pinned d1", src.resolved)
	}

	// The next request resolves the advanced name up front and serves
	// the new version.
	resp, qerr = ex.Run(context.Background(), Request{Graph: "web", Kernel: "bfs", Source: &source})
	if qerr != nil {
		t.Fatalf("query after version advance: %d %s: %s", qerr.Status, qerr.Code, qerr.Message)
	}
	if resp.Graph != "d2" {
		t.Fatalf("served digest %q, want the advanced version d2", resp.Graph)
	}
}
