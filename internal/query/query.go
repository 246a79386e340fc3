// Package query is gorderd's ordered-kernel query tier: it executes
// registry kernels against stored graphs at request rates, serving
// each query over the best ordering available — the paper's thesis
// ("a good ordering makes the kernels fast") turned into a read path.
//
// The executor composes the repository's existing tiers instead of
// re-implementing them: kernels and their canonical parameter hashing
// come from internal/registry (the only dispatch-by-name site),
// graphs and ordering artifacts are pinned through internal/store,
// and results are cached in an LRU byte budget plus — for whole-graph
// kernels — materialized as store artifacts that survive restarts.
// Results always live in the caller's (natural) vertex ID space:
// sources are mapped forward through the ordering's permutation and
// result vectors mapped back, so the ordering in use is invisible in
// the payload and visible only in the response's ordering stanza and
// the latency.
package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gorder/internal/graph"
	"gorder/internal/order"
	"gorder/internal/registry"
	"gorder/internal/store"
)

// MaxBatch bounds one /query/batch submission, mirroring the job
// queue's bounded-FIFO discipline.
const MaxBatch = 256

// MaxTop bounds the top-K value selection a response will carry.
const MaxTop = 1000

// maxPageRankIters bounds per-request PR work so a single query cannot
// monopolize the read path.
const maxPageRankIters = 10000

// Default cache budgets (bytes) when the config leaves them zero.
const (
	DefaultResultBudget = 64 << 20
	DefaultGraphBudget  = 256 << 20
)

// Source is the graph-resolution surface the executor needs from the
// server's registry: cheap metadata lookup for validation and keying,
// and full resolution (possibly reloading an evicted graph) for
// compute. Both accept an ID or name reference.
type Source interface {
	// Stat resolves ref to its digest and vertex count without forcing
	// the graph resident.
	Stat(ref string) (digest string, nodes int, ok bool)
	// Resolve returns the natural-order graph and its digest, loading
	// it from the store if evicted.
	Resolve(ref string) (*graph.Graph, string, bool)
}

// Config wires an Executor.
type Config struct {
	Source Source
	// Store supplies ordering artifacts (the "latest cached artifact"
	// fallback) and persists whole-graph results.
	Store *store.Store
	// ResultBudget and GraphBudget are LRU byte budgets for decoded
	// results and relabeled graphs; zero means the defaults.
	ResultBudget int64
	GraphBudget  int64
	// Workers is the goroutine count handed to kernels with a parallel
	// variant (> 1 engages the multicore engine; <= 1 keeps every
	// kernel serial). Scheduling only: parallel results are
	// parity-pinned to serial, so Workers is applied after cache
	// keying and never splits the result caches.
	Workers int
}

// Request is one kernel query.
type Request struct {
	// Graph references a registered graph by ID or name.
	Graph string `json:"graph"`
	// Kernel names a queryable registry kernel (case-insensitive).
	Kernel string `json:"kernel"`
	// Source is the traversal source for BFS/SP. Omitted, it defaults
	// to the graph's hub (max out-degree, lowest ID on ties) — resolved
	// on the natural-order graph so the cache key never depends on the
	// ordering in use.
	Source *int `json:"source,omitempty"`
	// Iters overrides the PR iteration count (<= 0 = kernel default).
	Iters int `json:"iters,omitempty"`
	// Order selects the ordering to execute over: empty = latest
	// stored artifact (else natural), "natural" = no reordering, or an
	// ordering method name whose artifact must already exist (queries
	// never compute orderings — that is the job queue's work).
	Order string `json:"order,omitempty"`
	// Top asks for the K largest per-vertex values (<= MaxTop).
	Top int `json:"top,omitempty"`
	// Targets asks for the values of specific vertices.
	Targets []int `json:"targets,omitempty"`
	// TimeoutMs caps this query's wall time (0 = server default).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// OrderingUsed reports which vertex ordering served a query.
type OrderingUsed struct {
	// Method is the ordering method ("gorder", ...) or "natural".
	Method string `json:"method"`
	// Key is the ordering artifact's canonical options key.
	Key string `json:"key,omitempty"`
	// Source says how the ordering was chosen: "explicit" (named in
	// the request), "latest" (newest stored artifact), "natural" (no
	// artifact available), or "cache" (result reused; Method/Key name
	// the ordering that originally computed it).
	Source string `json:"source"`
}

// Value is one per-vertex result entry, in natural vertex IDs.
type Value struct {
	Node  int     `json:"node"`
	Value float64 `json:"value"`
}

// Response is the answer to one Request.
type Response struct {
	Graph        string             `json:"graph"`
	Kernel       string             `json:"kernel"`
	ParamKey     string             `json:"param_key"`
	Ordering     OrderingUsed       `json:"ordering"`
	CacheHit     bool               `json:"cache_hit"`
	Materialized bool               `json:"materialized,omitempty"`
	Summary      map[string]float64 `json:"summary"`
	Values       []Value            `json:"values,omitempty"`
	ElapsedUs    int64              `json:"elapsed_us"`
}

// Error is a structured query failure, carrying the HTTP status the
// server layer should map it to.
type Error struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return e.Code + ": " + e.Message }

func errf(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// Executor runs queries. Safe for concurrent use.
type Executor struct {
	cfg     Config
	results *byteLRU // resultKey -> *cachedResult
	graphs  *byteLRU // graphKey  -> *orderedGraph

	hubMu sync.Mutex
	hubs  map[string]int // digest -> hub vertex (natural IDs)

	flightMu sync.Mutex
	flights  map[string]*flight // graph key -> relabeling under construction

	scratch sync.Pool // *registry.QueryScratch

	kernelRuns       atomic.Int64
	cacheHits        atomic.Int64
	cacheMisses      atomic.Int64
	materializedHits atomic.Int64
	relabelBuilds    atomic.Int64
	relabelCarries   atomic.Int64
	materializeFails atomic.Int64
	parallelRuns     map[string]*atomic.Int64 // kernel name -> multicore runs
}

// orderedGraph is a relabeled-graph cache entry: the graph in its
// ordering's ID space plus the permutation that maps natural IDs in.
type orderedGraph struct {
	g    *graph.Graph
	perm order.Permutation // nil for natural order
}

// flight is one relabeling under construction. Queries that miss the
// graph cache on its key meanwhile wait on done instead of relabeling
// again; og is set before done closes, and stays nil when the build
// failed or found no artifact, so the next waiter retries.
type flight struct {
	done chan struct{}
	og   *orderedGraph
}

// graphKey names one relabeled-graph cache entry.
func graphKey(digest, method, optKey string) string {
	return digest + "|" + method + "|" + optKey
}

func (o *orderedGraph) memBytes() int64 {
	b := int64(o.g.NumNodes())*16 + o.g.NumEdges()*8
	return b + int64(len(o.perm))*4
}

// New returns an executor over cfg. cfg.Source and cfg.Store are
// required.
func New(cfg Config) *Executor {
	if cfg.Source == nil {
		panic("query: Config.Source is required")
	}
	if cfg.Store == nil {
		panic("query: Config.Store is required")
	}
	if cfg.ResultBudget <= 0 {
		cfg.ResultBudget = DefaultResultBudget
	}
	if cfg.GraphBudget <= 0 {
		cfg.GraphBudget = DefaultGraphBudget
	}
	par := make(map[string]*atomic.Int64)
	for _, k := range registry.Kernels() {
		if k.Query != nil && k.Parallel {
			par[k.Name] = new(atomic.Int64)
		}
	}
	return &Executor{
		cfg:          cfg,
		results:      newByteLRU(cfg.ResultBudget),
		graphs:       newByteLRU(cfg.GraphBudget),
		hubs:         make(map[string]int),
		flights:      make(map[string]*flight),
		scratch:      sync.Pool{New: func() any { return new(registry.QueryScratch) }},
		parallelRuns: par,
	}
}

// Run executes one query.
func (e *Executor) Run(ctx context.Context, req Request) (*Response, *Error) {
	var st groupState
	defer st.release(e)
	return e.runOne(ctx, req, &st)
}

// BatchItem is one slot of a batch response: exactly one of Response
// and Error is set, positionally matching the submitted queries.
type BatchItem struct {
	Response *Response `json:"response,omitempty"`
	Error    *Error    `json:"error,omitempty"`
}

// RunBatch executes a batch, coalescing queries against the same
// (graph, ordering) pair so graph residency, the relabeled graph, and
// the traversal scratch buffers are set up once per group rather than
// once per query. Items map 1:1 to reqs.
func (e *Executor) RunBatch(ctx context.Context, reqs []Request) []BatchItem {
	items := make([]BatchItem, len(reqs))
	// Group positionally by (digest, order). Unresolvable graphs fail
	// per-item, inside runOne, with the usual envelope.
	groups := make(map[string][]int)
	var groupOrder []string
	for i, req := range reqs {
		var key string
		if digest, _, ok := e.cfg.Source.Stat(req.Graph); ok {
			key = digest + "|" + req.Order
		} else {
			key = "?" + req.Graph + "|" + req.Order
		}
		if _, seen := groups[key]; !seen {
			groupOrder = append(groupOrder, key)
		}
		groups[key] = append(groups[key], i)
	}
	for _, key := range groupOrder {
		var st groupState
		for _, i := range groups[key] {
			resp, qerr := e.runOne(ctx, reqs[i], &st)
			if qerr != nil {
				items[i].Error = qerr
			} else {
				items[i].Response = resp
			}
		}
		st.release(e)
	}
	return items
}

// groupState carries the per-(graph, ordering) work a batch amortizes:
// the resolved natural graph, the relabeled graph and permutation, and
// the borrowed traversal scratch. The zero value is ready.
type groupState struct {
	natural  *graph.Graph
	digest   string // natural's digest
	og       *orderedGraph
	ogDigest string // og's digest; a cached og is served without natural
	used     OrderingUsed
	scratch  *registry.QueryScratch
}

func (st *groupState) release(e *Executor) {
	if st.scratch != nil {
		e.scratch.Put(st.scratch)
		st.scratch = nil
	}
}

// runOne executes req, reusing whatever st has already resolved.
func (e *Executor) runOne(ctx context.Context, req Request, st *groupState) (*Response, *Error) {
	start := time.Now()

	k, ok := registry.LookupKernel(req.Kernel)
	if !ok {
		return nil, errf(404, "unknown_kernel", "unknown kernel %q; queryable kernels: %s",
			req.Kernel, strings.Join(registry.QueryableKernelNames(), " "))
	}
	if k.Query == nil {
		return nil, errf(400, "kernel_not_queryable",
			"kernel %q has order-dependent output and cannot be queried; queryable kernels: %s",
			k.Name, strings.Join(registry.QueryableKernelNames(), " "))
	}
	digest, nodes, ok := e.cfg.Source.Stat(req.Graph)
	if !ok {
		return nil, errf(404, "unknown_graph", "graph %q is not registered", req.Graph)
	}
	if req.Top < 0 || req.Top > MaxTop {
		return nil, errf(400, "invalid_params", "top must be in [0, %d], got %d", MaxTop, req.Top)
	}
	if req.Iters < 0 || req.Iters > maxPageRankIters {
		return nil, errf(400, "invalid_params", "iters must be in [0, %d], got %d",
			maxPageRankIters, req.Iters)
	}
	for _, t := range req.Targets {
		if t < 0 || t >= nodes {
			return nil, errf(400, "target_out_of_range",
				"target vertex %d out of range [0, %d)", t, nodes)
		}
	}

	params := registry.KernelParams{SPSource: -1, PageRankIters: req.Iters}
	if req.Source != nil {
		params.SPSource = *req.Source
	}
	if consumesSource(k) {
		if params.SPSource >= nodes {
			return nil, errf(400, "source_out_of_range",
				"source vertex %d out of range [0, %d)", params.SPSource, nodes)
		}
		if params.SPSource < 0 {
			hub, qerr := e.hubSource(req.Graph, digest, st)
			if qerr != nil {
				return nil, qerr
			}
			params.SPSource = hub
		}
	}

	params, paramKey, err := registry.KernelKey(k.Name, params)
	if err != nil {
		return nil, errf(400, "invalid_params", "%v", err)
	}
	kname := strings.ToLower(k.Name)
	resultKey := digest + "|" + kname + "|" + paramKey

	respond := func(c *cachedResult, used OrderingUsed, cacheHit, materialized bool) (*Response, *Error) {
		values, qerr := shapeValues(&c.res, req.Targets, req.Top)
		if qerr != nil {
			return nil, qerr
		}
		return &Response{
			Graph:        digest,
			Kernel:       k.Name,
			ParamKey:     paramKey,
			Ordering:     used,
			CacheHit:     cacheHit,
			Materialized: materialized,
			Summary:      c.res.Summary,
			Values:       values,
			ElapsedUs:    time.Since(start).Microseconds(),
		}, nil
	}

	if v, ok := e.results.get(resultKey); ok {
		e.cacheHits.Add(1)
		c := v.(*cachedResult)
		return respond(c, cachedOrdering(c), true, false)
	}
	if k.WholeGraph {
		if data, ok := e.cfg.Store.GetResult(digest, kname, paramKey); ok {
			if c, derr := decodeResult(data); derr == nil && c.res.Kernel == k.Name {
				e.materializedHits.Add(1)
				e.results.put(resultKey, c, c.memBytes())
				return respond(c, cachedOrdering(c), true, true)
			}
			// Undecodable blob (format drift): fall through and
			// recompute; the rewrite below replaces it.
		}
	}
	e.cacheMisses.Add(1)

	og, used, qerr := e.orderedGraphFor(ctx, req, digest, nodes, st)
	if qerr != nil {
		return nil, qerr
	}
	if err := ctx.Err(); err != nil {
		return nil, errf(504, "query_timeout", "query deadline exceeded before kernel ran")
	}

	runParams := params
	if consumesSource(k) && og.perm != nil {
		runParams.SPSource = int(og.perm[params.SPSource])
	}
	// Workers rides outside the cache key (parallel output is
	// parity-pinned to serial), so it is applied only now, after keying.
	if k.Parallel {
		runParams.Workers = e.cfg.Workers
	}
	if st.scratch == nil {
		st.scratch = e.scratch.Get().(*registry.QueryScratch)
	}
	res, kerr := k.Query(ctx, og.g, runParams, st.scratch)
	if kerr != nil {
		if ctx.Err() != nil {
			return nil, errf(504, "query_timeout", "query deadline exceeded mid-kernel: %v", kerr)
		}
		return nil, errf(400, "invalid_params", "%v", kerr)
	}
	e.kernelRuns.Add(1)
	if runParams.Workers > 1 {
		if c := e.parallelRuns[k.Name]; c != nil {
			c.Add(1)
		}
	}
	mapResultBack(&res, og.perm)

	c := &cachedResult{res: res}
	if used.Method != "natural" {
		c.method, c.optKey = used.Method, used.Key
	}
	e.results.put(resultKey, c, c.memBytes())
	if k.WholeGraph {
		if err := e.cfg.Store.PutResult(digest, kname, paramKey, encodeResult(c)); err != nil {
			e.materializeFails.Add(1)
		}
	}
	return respond(c, used, false, false)
}

// hubSource resolves (and caches per digest) the default traversal
// source on the natural-order graph.
func (e *Executor) hubSource(ref, digest string, st *groupState) (int, *Error) {
	e.hubMu.Lock()
	hub, ok := e.hubs[digest]
	e.hubMu.Unlock()
	if ok {
		return hub, nil
	}
	g, qerr := e.naturalGraph(ref, digest, st)
	if qerr != nil {
		return 0, qerr
	}
	if g.NumNodes() == 0 {
		return 0, errf(400, "source_out_of_range", "graph %s has no vertices", digest)
	}
	hub = int(registry.HubSource(g))
	e.hubMu.Lock()
	e.hubs[digest] = hub
	e.hubMu.Unlock()
	return hub, nil
}

// naturalGraph resolves the natural-order graph into st. The digest
// was pinned at admission; if a concurrent edit advanced ref to a
// newer version since, the pinned version is still registered under
// its immutable ID, so fall back to resolving by digest — each query
// serves a consistent snapshot instead of 404ing mid-edit.
func (e *Executor) naturalGraph(ref, digest string, st *groupState) (*graph.Graph, *Error) {
	if st.natural != nil && st.digest == digest {
		return st.natural, nil
	}
	g, d, ok := e.cfg.Source.Resolve(ref)
	if !ok || d != digest {
		g, d, ok = e.cfg.Source.Resolve(digest)
		if !ok || d != digest {
			return nil, errf(404, "unknown_graph", "graph %q is no longer loadable", ref)
		}
	}
	st.natural, st.digest = g, digest
	return g, nil
}

// orderedGraphFor resolves which ordering serves req and returns the
// graph relabeled into it (cached under the executor's graph budget),
// reusing st's resolution when the batch group already did this work.
// nodes is digest's vertex count, from the admission Stat.
func (e *Executor) orderedGraphFor(ctx context.Context, req Request, digest string, nodes int, st *groupState) (*orderedGraph, OrderingUsed, *Error) {
	if st.og != nil && st.ogDigest == digest {
		return st.og, st.used, nil
	}
	for retried := false; ; retried = true {
		method, optKey, srcTag, qerr := e.chooseOrdering(digest, req.Order)
		if qerr != nil {
			return nil, OrderingUsed{}, qerr
		}
		var og *orderedGraph
		if method == "natural" {
			g, qerr := e.naturalGraph(req.Graph, digest, st)
			if qerr != nil {
				return nil, OrderingUsed{}, qerr
			}
			og = &orderedGraph{g: g}
		} else {
			if og, qerr = e.relabeled(ctx, req.Graph, digest, nodes, method, optKey, st); qerr != nil {
				return nil, OrderingUsed{}, qerr
			}
			if og == nil {
				// A repair job can replace the latest artifact between
				// chooseOrdering listing it and the read; re-choose once
				// against the current latest before giving up.
				if req.Order == "" && !retried {
					continue
				}
				return nil, OrderingUsed{}, errf(409, "order_not_ready",
					"ordering artifact %s/%s for graph %s is gone; re-run the ordering job",
					method, optKey, digest)
			}
		}
		used := OrderingUsed{Method: method, Key: optKey, Source: srcTag}
		st.og, st.ogDigest, st.used = og, digest, used
		return og, used, nil
	}
}

// relabeled returns digest's graph relabeled into (method, optKey), or
// nil when the ordering artifact is gone. A cached relabeling is served
// without resolving the natural graph, which may be evicted or
// superseded and cost a disk reload. Concurrent misses on one key share
// a single build: the first relabels, the rest wait for it.
func (e *Executor) relabeled(ctx context.Context, ref, digest string, nodes int, method, optKey string, st *groupState) (*orderedGraph, *Error) {
	key := graphKey(digest, method, optKey)
	for {
		if v, ok := e.graphs.get(key); ok {
			return v.(*orderedGraph), nil
		}
		e.flightMu.Lock()
		f, building := e.flights[key]
		if !building {
			f = &flight{done: make(chan struct{})}
			e.flights[key] = f
		}
		e.flightMu.Unlock()
		if !building {
			return e.buildRelabeled(f, key, ref, digest, nodes, method, optKey, st)
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, errf(504, "query_timeout", "query deadline exceeded waiting for the relabeled graph")
		}
		if f.og != nil {
			return f.og, nil
		}
		// The build failed or found no artifact: retry, as the builder
		// if no one else is.
	}
}

// buildRelabeled runs flight f: read the artifact and the natural
// graph, relabel, and cache the result while digest is still a tip (a
// superseded version's relabeling would only crowd out live ones). The
// flight ends, cached entry first, on every path — panics included.
func (e *Executor) buildRelabeled(f *flight, key, ref, digest string, nodes int, method, optKey string, st *groupState) (og *orderedGraph, qerr *Error) {
	defer func() {
		f.og = og
		e.flightMu.Lock()
		delete(e.flights, key)
		e.flightMu.Unlock()
		close(f.done)
	}()
	perm, ok := e.cfg.Store.GetOrder(digest, method, optKey, nodes)
	if !ok {
		return nil, nil
	}
	g, qerr := e.naturalGraph(ref, digest, st)
	if qerr != nil {
		return nil, qerr
	}
	og = &orderedGraph{g: g.Relabel(perm), perm: perm}
	e.relabelBuilds.Add(1)
	if e.cfg.Store.IsTip(digest) {
		e.graphs.put(key, og, og.memBytes())
	}
	return og, nil
}

// chooseOrdering implements the ordering-selection policy: explicit
// method → its latest stored artifact (409 if absent — the read path
// never computes orderings); empty → latest artifact of any method,
// else natural; "natural" → natural.
func (e *Executor) chooseOrdering(digest, orderReq string) (method, optKey, srcTag string, qerr *Error) {
	switch {
	case orderReq == "natural":
		return "natural", "", "natural", nil
	case orderReq == "":
		if m, k, ok := e.cfg.Store.LatestOrder(digest, ""); ok {
			return m, k, "latest", nil
		}
		return "natural", "", "natural", nil
	default:
		desc, ok := registry.Lookup(orderReq)
		if !ok {
			return "", "", "", errf(400, "unknown_order",
				"unknown ordering %q; methods: natural %s",
				orderReq, strings.Join(registry.MethodNames(), " "))
		}
		m := strings.ToLower(desc.Name)
		if _, k, ok := e.cfg.Store.LatestOrder(digest, m); ok {
			return m, k, "explicit", nil
		}
		return "", "", "", errf(409, "order_not_ready",
			"no %s ordering artifact for graph %s; submit an ordering job first", m, digest)
	}
}

// cachedOrdering reports a cached result's provenance.
func cachedOrdering(c *cachedResult) OrderingUsed {
	if c.method == "" {
		return OrderingUsed{Method: "natural", Source: "cache"}
	}
	return OrderingUsed{Method: c.method, Key: c.optKey, Source: "cache"}
}

// consumesSource reports whether k's Query reads a traversal source.
func consumesSource(k registry.Kernel) bool {
	for _, f := range k.QueryConsumes {
		if f == registry.KOptSource {
			return true
		}
	}
	return false
}

// mapResultBack relabels res's per-vertex vector from the ordering's
// ID space back to natural IDs (out[v] = vec[perm[v]]), in place.
func mapResultBack(res *registry.KernelResult, perm order.Permutation) {
	if perm == nil {
		return
	}
	switch {
	case res.Int32s != nil:
		out := make([]int32, len(res.Int32s))
		for v := range out {
			out[v] = res.Int32s[perm[v]]
		}
		res.Int32s = out
	case res.Int64s != nil:
		out := make([]int64, len(res.Int64s))
		for v := range out {
			out[v] = res.Int64s[perm[v]]
		}
		res.Int64s = out
	case res.Floats != nil:
		out := make([]float64, len(res.Floats))
		for v := range out {
			out[v] = res.Floats[perm[v]]
		}
		res.Floats = out
	}
}

// shapeValues selects the response's value entries: explicit targets
// win, else the top-K by value (descending, vertex ID ascending on
// ties), else none — whole vectors are served from materialized
// artifacts, not JSON.
func shapeValues(res *registry.KernelResult, targets []int, top int) ([]Value, *Error) {
	n := res.VectorLen()
	if len(targets) > 0 {
		if n == 0 {
			return nil, errf(400, "invalid_params",
				"kernel %s has no per-vertex values", res.Kernel)
		}
		out := make([]Value, len(targets))
		for i, t := range targets {
			if t >= n {
				return nil, errf(400, "target_out_of_range",
					"target vertex %d out of range [0, %d)", t, n)
			}
			out[i] = Value{Node: t, Value: res.Value(t)}
		}
		return out, nil
	}
	if top <= 0 || n == 0 {
		return nil, nil
	}
	if top > n {
		top = n
	}
	// O(n·K) selection: K is capped small, n can be millions.
	sel := make([]Value, 0, top)
	minIdx := -1
	for v := 0; v < n; v++ {
		val := res.Value(v)
		if len(sel) < top {
			sel = append(sel, Value{Node: v, Value: val})
			if minIdx < 0 || val < sel[minIdx].Value {
				minIdx = len(sel) - 1
			}
			continue
		}
		if val <= sel[minIdx].Value {
			continue
		}
		sel[minIdx] = Value{Node: v, Value: val}
		minIdx = 0
		for i := 1; i < len(sel); i++ {
			if sel[i].Value < sel[minIdx].Value {
				minIdx = i
			}
		}
	}
	sort.Slice(sel, func(i, j int) bool {
		if sel[i].Value != sel[j].Value {
			return sel[i].Value > sel[j].Value
		}
		return sel[i].Node < sel[j].Node
	})
	return sel, nil
}

// InvalidateOrdering drops the relabeled-graph cache entry for one
// ordering artifact. The daemon calls it after a repair job replaces
// the stored permutation for (digest, method, optKey): subsequent
// queries naming that ordering rebuild the relabeled graph from the
// repaired artifact instead of serving the superseded layout. Cached
// results need no invalidation — result keys carry no ordering and
// result vectors live in natural vertex IDs, so they are correct under
// any permutation of the same digest.
func (e *Executor) InvalidateOrdering(digest, method, optKey string) {
	e.graphs.remove(graphKey(digest, method, optKey))
}

// CarryOrdering moves the cached relabeled graph of one ordering from
// a lineage's old tip to the version an edit batch derived from it, so
// the first query on the new version does not relabel. gNew is the
// batch (add, del) applied to the old tip, and perm the ordering
// carried forward to it. Carried-forward permutations keep every old
// vertex where the base put it and place appended vertices in [n, n2),
// so applying the batch, mapped through perm, to the relabeled old
// graph yields exactly gNew.Relabel(perm). A perm that moves an old
// vertex breaks that, and nothing is carried; the new version then
// relabels lazily, as it does when the old tip's relabeling was not
// cached. Either way the old tip's entry is dropped. Call it before
// persisting perm under newDigest, so no query sees the new artifact
// without its relabeling. Reports whether a relabeling was carried.
func (e *Executor) CarryOrdering(oldDigest, newDigest, method, optKey string, gNew *graph.Graph, perm order.Permutation, add, del []graph.Edge) bool {
	oldKey := graphKey(oldDigest, method, optKey)
	v, ok := e.graphs.get(oldKey)
	if !ok {
		return false
	}
	e.graphs.remove(oldKey)
	old := v.(*orderedGraph)
	n := old.g.NumNodes()
	if len(old.perm) != n || len(perm) != gNew.NumNodes() || len(perm) < n {
		return false
	}
	for u, p := range old.perm {
		if perm[u] != p {
			return false
		}
	}
	mapped := func(es []graph.Edge) []graph.Edge {
		out := make([]graph.Edge, len(es))
		for i, ed := range es {
			out[i] = graph.Edge{From: perm[ed.From], To: perm[ed.To]}
		}
		return out
	}
	g, _, err := graph.ApplyEdits(old.g, len(perm)-n, mapped(add), mapped(del))
	if err != nil || g.NumEdges() != gNew.NumEdges() {
		return false
	}
	og := &orderedGraph{g: g, perm: perm}
	e.graphs.put(graphKey(newDigest, method, optKey), og, og.memBytes())
	e.relabelCarries.Add(1)
	return true
}

// ---- metrics ------------------------------------------------------------

// KernelRuns returns how many kernel executions the executor has paid.
func (e *Executor) KernelRuns() int64 { return e.kernelRuns.Load() }

// CacheHits returns in-memory result-cache hits.
func (e *Executor) CacheHits() int64 { return e.cacheHits.Load() }

// CacheMisses returns result-cache misses (compute or disk reload).
func (e *Executor) CacheMisses() int64 { return e.cacheMisses.Load() }

// MaterializedHits returns results served from store artifacts.
func (e *Executor) MaterializedHits() int64 { return e.materializedHits.Load() }

// RelabelBuilds returns how many relabeled graphs were constructed.
func (e *Executor) RelabelBuilds() int64 { return e.relabelBuilds.Load() }

// RelabelCarries returns how many relabeled graphs an edit carried
// forward instead of a query rebuilding them.
func (e *Executor) RelabelCarries() int64 { return e.relabelCarries.Load() }

// MaterializeFails returns failed result-artifact writes.
func (e *Executor) MaterializeFails() int64 { return e.materializeFails.Load() }

// ParallelRuns returns how many times the named kernel ran on the
// multicore engine (0 for kernels without a parallel variant).
func (e *Executor) ParallelRuns(kernel string) int64 {
	if c := e.parallelRuns[kernel]; c != nil {
		return c.Load()
	}
	return 0
}

// Workers reports the executor's configured kernel worker count.
func (e *Executor) Workers() int { return e.cfg.Workers }

// ResultCacheBytes returns the result LRU's current footprint.
func (e *Executor) ResultCacheBytes() int64 {
	_, b, _ := e.results.stats()
	return b
}

// GraphCacheBytes returns the relabeled-graph LRU's current footprint.
func (e *Executor) GraphCacheBytes() int64 {
	_, b, _ := e.graphs.stats()
	return b
}
