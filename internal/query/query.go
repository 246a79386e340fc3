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
// Every kind of entry the executor keeps in memory — relabeled graphs,
// per-source results (BFS, SP) and whole-graph results — enters its
// LRU only on its second use, so a graph or an answer asked for once
// holds no memory and never displaces entries that recur.
// Results always live in the caller's (natural) vertex ID space:
// sources are mapped forward through the ordering's permutation and
// result vectors mapped back, so the ordering in use is invisible in
// the payload and visible only in the response's ordering stanza and
// the latency.
package query

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gorder/internal/graph"
	"gorder/internal/memstat"
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

// DefaultResultBudget is the result-cache byte budget when the config
// leaves it zero.
const DefaultResultBudget = 64 << 20

// graphBudget is the relabeled-graph cache's byte budget.
const graphBudget = 256 << 20

// Source is the graph-resolution surface the executor needs — in the
// daemon, the store's catalog: cheap metadata lookup for validation
// and keying, and full resolution (possibly reloading an evicted
// graph) for compute. Both accept an ID or name reference.
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
	// ResultBudget is the LRU byte budget for decoded results; zero
	// means DefaultResultBudget.
	ResultBudget int64
	// Workers is the goroutine count handed to the exec-backed kernels
	// (BFS, SP, PR, Tri); <= 1 runs them on one goroutine. Scheduling
	// only: their results are parity-pinned to the serial oracles, so
	// Workers is applied after cache keying and never splits the
	// result caches.
	Workers int
	// Collector forces and counts the collection after a relabel build
	// evicts the natural tip; nil means a collector of the executor's own.
	Collector *memstat.Collector
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
	results *byteLRU   // resultKey -> *cachedResult
	graphs  *byteLRU   // graphKey  -> *orderedGraph
	door    doorkeeper // admits results on their second miss
	// graphDoor admits relabelings on their second build. It is not
	// door: a flood of one-off result keys would push a tip's first
	// sighting out of shared slots.
	graphDoor doorkeeper

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
	admitted         atomic.Int64
	deferred         atomic.Int64
	graphAdmitted    atomic.Int64
	graphDeferred    atomic.Int64
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
	if cfg.Collector == nil {
		cfg.Collector = new(memstat.Collector)
	}
	return &Executor{
		cfg:     cfg,
		results: newByteLRU(cfg.ResultBudget),
		graphs:  newByteLRU(graphBudget),
		hubs:    make(map[string]int),
		flights: make(map[string]*flight),
		scratch: sync.Pool{New: func() any { return new(registry.QueryScratch) }},
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
	evicted  bool // a relabel build here evicted natural's tip
}

// release returns the borrowed scratch and lets go of the natural
// graph. When the group's relabel build evicted that graph from the
// store, it is garbage from here on (and so is the relabeled copy, on
// its first build), but the collector's heap target may have been set
// while both were live: twice the heap the tip needs. release then
// collects at once, so the eviction frees memory now rather than one GC
// cycle later, and the process's peak does not depend on where that
// cycle fell. The collection counts as the relabel stage's
// (memstat.Relabel).
func (st *groupState) release(e *Executor) {
	if st.scratch != nil {
		e.scratch.Put(st.scratch)
		st.scratch = nil
	}
	st.natural = nil
	if st.evicted {
		st.evicted = false
		e.cfg.Collector.Collect(memstat.Relabel)
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

	respond := func(rv resultView, used OrderingUsed, cacheHit, materialized bool) (*Response, *Error) {
		values, qerr := shapeValues(rv, req.Targets, req.Top)
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
			Summary:      rv.res.Summary,
			Values:       values,
			ElapsedUs:    time.Since(start).Microseconds(),
		}, nil
	}

	if v, ok := e.results.get(resultKey); ok {
		e.cacheHits.Add(1)
		c := v.(*cachedResult)
		return respond(resultView{res: &c.res}, cachedOrdering(c), true, false)
	}
	if k.WholeGraph {
		if data, ok := e.cfg.Store.GetResult(digest, kname, paramKey); ok {
			if c, derr := decodeResult(data); derr == nil && c.res.Kernel == k.Name {
				// A materialized result was computed before: this is at
				// least its second use, so it is cached.
				e.materializedHits.Add(1)
				mapResultBack(&c.res, nil)
				e.results.put(resultKey, c, c.memBytes())
				return respond(resultView{res: &c.res}, cachedOrdering(c), true, true)
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
	// Workers rides outside the cache key (kernel output is
	// parity-pinned at any worker count), so it is applied only now,
	// after keying; kernels that do not consume it ignore it.
	runParams.Workers = e.cfg.Workers
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
	// A result enters the cache only on its second miss. A one-off
	// per-source answer is served straight off the kernel's vector
	// through the permutation, never copied into natural IDs or kept; a
	// whole-graph one is still materialized, so its second use is a
	// materialized hit, which admits it.
	admit := e.door.admit(resultKey)
	if admit {
		e.admitted.Add(1)
	} else {
		e.deferred.Add(1)
		if !k.WholeGraph {
			return respond(resultView{res: &res, perm: og.perm}, used, false, false)
		}
	}
	mapResultBack(&res, og.perm)

	c := &cachedResult{res: res}
	if used.Method != "natural" {
		c.method, c.optKey = used.Method, used.Key
	}
	if admit {
		e.results.put(resultKey, c, c.memBytes())
	}
	if k.WholeGraph {
		if err := e.cfg.Store.PutResult(digest, kname, paramKey, encodeResult(c)); err != nil {
			e.materializeFails.Add(1)
		}
	}
	return respond(resultView{res: &c.res}, used, false, false)
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

// naturalGraph resolves the natural-order graph into st, by the digest
// pinned at admission rather than by ref: if a concurrent edit advanced
// ref to a newer version since, the pinned version is still registered
// under its immutable ID, so each query serves a consistent snapshot
// instead of 404ing mid-edit, and the new tip is not loaded from disk
// only to be discarded.
func (e *Executor) naturalGraph(ref, digest string, st *groupState) (*graph.Graph, *Error) {
	if st.natural != nil && st.digest == digest {
		return st.natural, nil
	}
	g, d, ok := e.cfg.Source.Resolve(digest)
	if !ok || d != digest {
		return nil, errf(404, "unknown_graph", "graph %q is no longer loadable", ref)
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
			var natural bool
			og, natural, qerr = e.relabeled(ctx, req.Graph, digest, nodes, method, optKey, srcTag == "latest", st)
			if qerr != nil {
				return nil, OrderingUsed{}, qerr
			}
			if natural {
				method, optKey, srcTag = "natural", "", "natural"
			} else if og == nil {
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
// a single build: the first relabels, the rest wait for it. latest
// marks a read that took (method, optKey) as digest's latest artifact
// rather than naming it: if digest is no longer a tip when it would be
// relabeled, such a read gets the natural graph instead (natural true).
func (e *Executor) relabeled(ctx context.Context, ref, digest string, nodes int, method, optKey string, latest bool, st *groupState) (og *orderedGraph, natural bool, qerr *Error) {
	key := graphKey(digest, method, optKey)
	for {
		if v, ok := e.graphs.get(key); ok {
			return v.(*orderedGraph), false, nil
		}
		e.flightMu.Lock()
		f, building := e.flights[key]
		if !building {
			f = &flight{done: make(chan struct{})}
			e.flights[key] = f
		}
		e.flightMu.Unlock()
		if !building {
			return e.buildRelabeled(f, key, ref, digest, nodes, method, optKey, latest, st)
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, errf(504, "query_timeout", "query deadline exceeded waiting for the relabeled graph")
		}
		if f.og != nil {
			return f.og, false, nil
		}
		// The build failed or found no artifact: retry, as the builder
		// if no one else is.
	}
}

// buildRelabeled runs flight f: read the artifact and the natural
// graph and relabel. While digest is still a tip, the relabeling
// replaces the natural tip in memory: kernels run on the copy and edits
// apply to it (Relabeling, CarryOrdering), so the tip's hub source is
// recorded from the natural graph in hand and the store evicts the
// natural CSR, which stays on disk for order jobs and natural-order
// queries (st's release collects it). The relabeling itself is cached
// only on its key's second build (graphDoor): a tip queried once then
// holds no memory, and the next miss reloads its blob. A superseded
// version's relabeling is never cached; it would only crowd out live
// ones. So a latest read (see relabeled) of a version that is no longer
// a tip — one that lost the race to an edit — runs on the natural graph
// it has just resolved rather than paying a relabel no one will reuse.
// The flight ends, cached entry first, on every path — panics included;
// a natural answer is not the flight's, so waiters build or decide anew.
func (e *Executor) buildRelabeled(f *flight, key, ref, digest string, nodes int, method, optKey string, latest bool, st *groupState) (og *orderedGraph, natural bool, qerr *Error) {
	defer func() {
		if !natural {
			f.og = og
		}
		e.flightMu.Lock()
		delete(e.flights, key)
		e.flightMu.Unlock()
		close(f.done)
	}()
	perm, ok := e.cfg.Store.GetOrder(digest, method, optKey, nodes)
	if !ok {
		return nil, false, nil
	}
	g, qerr := e.naturalGraph(ref, digest, st)
	if qerr != nil {
		return nil, false, qerr
	}
	if latest && !e.cfg.Store.IsTip(digest) {
		return &orderedGraph{g: g}, true, nil
	}
	og = &orderedGraph{g: g.Relabel(perm), perm: perm}
	e.relabelBuilds.Add(1)
	// The tip check and the hub record share hubMu: an edit moves the
	// tip before its DropHub, so a hub recorded here is either seen by
	// that DropHub or not recorded at all.
	e.hubMu.Lock()
	tip := e.cfg.Store.IsTip(digest)
	if tip && g.NumNodes() > 0 {
		e.hubs[digest] = int(registry.HubSource(g))
	}
	e.hubMu.Unlock()
	if tip {
		if e.graphDoor.admit(key) {
			e.graphAdmitted.Add(1)
			e.graphs.put(key, og, og.memBytes())
		} else {
			e.graphDeferred.Add(1)
		}
		e.cfg.Store.Evict(digest)
		st.evicted = true
	}
	return og, false, nil
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
// ID space back to natural IDs (out[v] = vec[perm[v]]; perm nil is the
// identity), in place, readying it for the result cache. An int32
// vector whose entries all lie in [-1, 65534] — hop distances, core
// numbers — is written straight into its packed form at the narrowest
// width that holds it (registry.PackInt32s), on the natural-order path
// too: 4 bits per vertex for distances up to 14. Other vectors are
// copied only under a permutation.
func mapResultBack(res *registry.KernelResult, perm order.Permutation) {
	if res.Int32s != nil {
		if p := registry.PackInt32s(res.Int32s, perm); p != nil {
			res.Int32s, res.Packed = nil, p
			return
		}
	}
	switch {
	case perm == nil:
		// Natural order: any other vector is cached as the kernel left it.
	case res.Int32s != nil:
		res.Int32s = permuted(res.Int32s, perm)
	case res.Int64s != nil:
		res.Int64s = permuted(res.Int64s, perm)
	case res.Floats != nil:
		res.Floats = permuted(res.Floats, perm)
	}
}

// permuted returns vec read through perm: out[v] = vec[perm[v]].
func permuted[T any](vec []T, perm order.Permutation) []T {
	out := make([]T, len(vec))
	for v := range out {
		out[v] = vec[perm[v]]
	}
	return out
}

// resultView reads a kernel result in natural vertex IDs: vertex v's
// value is the vector's entry at perm[v], at v when perm is nil — what
// mapResultBack would store at v, read without materializing the copy.
type resultView struct {
	res  *registry.KernelResult
	perm order.Permutation
}

// shapeValues selects the response's value entries: explicit targets
// win, else the top-K by value (descending, vertex ID ascending on
// ties), else none — whole vectors are served from materialized
// artifacts, not JSON.
func shapeValues(rv resultView, targets []int, top int) ([]Value, *Error) {
	n := rv.res.VectorLen()
	if len(targets) > 0 {
		if n == 0 {
			return nil, errf(400, "invalid_params",
				"kernel %s has no per-vertex values", rv.res.Kernel)
		}
		out, bad := readTargets(rv, targets)
		if out == nil {
			return nil, errf(400, "target_out_of_range",
				"target vertex %d out of range [0, %d)", bad, n)
		}
		return out, nil
	}
	if top <= 0 || n == 0 {
		return nil, nil
	}
	if top > n {
		top = n
	}
	switch r := rv.res; {
	case r.Packed != nil:
		return topPacked(r.Packed, rv.perm, top), nil
	case r.Int32s != nil:
		return topHeap(r.Int32s, rv.perm, top), nil
	case r.Int64s != nil:
		return topHeap(r.Int64s, rv.perm, top), nil
	default:
		return topHeap(r.Floats, rv.perm, top), nil
	}
}

// InvalidateOrdering drops the relabeled-graph cache entry for one
// ordering artifact. The daemon calls it after a repair job replaces
// the stored permutation for (digest, method, optKey): subsequent
// queries naming that ordering rebuild the relabeled graph from the
// repaired artifact instead of serving the superseded layout, and a
// dropped entry counts as seen, so its first rebuild is cached. Cached
// results need no invalidation — result keys carry no ordering and
// result vectors live in natural vertex IDs, so they are correct under
// any permutation of the same digest.
func (e *Executor) InvalidateOrdering(digest, method, optKey string) {
	key := graphKey(digest, method, optKey)
	if e.graphs.remove(key) {
		e.graphDoor.record(key)
	}
}

// DropHub forgets digest's cached default traversal source. Call it
// whenever a lineage's tip moves off digest — an edit, or an upload of
// new content under the name — so the hub cache holds one entry per
// lineage whether or not any ordering was carried forward: a
// superseded version is no longer queried by name, and a pinned query
// recomputes the hub on demand.
func (e *Executor) DropHub(digest string) {
	e.hubMu.Lock()
	delete(e.hubs, digest)
	e.hubMu.Unlock()
}

// Relabeling returns digest's cached relabeled graph under (method,
// optKey) when base is the permutation it was built with. That graph is
// the tip's resident form, which an edit applies its batch to (mapped
// through base) instead of loading the natural CSR. A relabeling built
// from a permutation that a repair has since replaced is not returned.
func (e *Executor) Relabeling(digest, method, optKey string, base order.Permutation) (*graph.Graph, bool) {
	v, ok := e.graphs.get(graphKey(digest, method, optKey))
	if !ok {
		return nil, false
	}
	og := v.(*orderedGraph)
	if !slices.Equal(og.perm, base) {
		return nil, false
	}
	return og.g, true
}

// CarryOrdering caches g, the version an edit derived already in the
// ordering's ID space (relabeled by perm), as newDigest's relabeling
// under (method, optKey), and records newDigest's hub source from g's
// out-degrees and perm: the hub a natural-graph lookup would find. The
// first query on the new version then neither relabels nor reloads, and
// the key counts as seen: were the entry dropped, its first rebuild
// would be cached.
// The edit path builds g once, with graph.ApplyEdits on the old tip's
// relabeling (Relabeling) and the batch mapped through perm, and holds
// no natural copy. Call it before newDigest becomes a tip and before
// perm is stored under it, so no query sees either without the other;
// the old tip's entry is the caller's to drop (InvalidateOrdering) once
// the tip has moved.
func (e *Executor) CarryOrdering(newDigest, method, optKey string, g *graph.Graph, perm order.Permutation) {
	og := &orderedGraph{g: g, perm: perm}
	key := graphKey(newDigest, method, optKey)
	e.graphDoor.record(key)
	e.graphs.put(key, og, og.memBytes())
	if len(perm) > 0 {
		e.hubMu.Lock()
		e.hubs[newDigest] = hubOf(g, perm)
		e.hubMu.Unlock()
	}
	e.relabelCarries.Add(1)
}

// hubOf is registry.HubSource of the natural graph that g, relabeled by
// perm, came from: the vertex of most out-edges, lowest natural ID on
// ties.
func hubOf(g *graph.Graph, perm order.Permutation) int {
	best, bestDeg := 0, -1
	for u, p := range perm {
		if d := g.OutDegree(p); d > bestDeg {
			best, bestDeg = u, d
		}
	}
	return best
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
// forward (CarryOrdering) instead of a query rebuilding them.
func (e *Executor) RelabelCarries() int64 { return e.relabelCarries.Load() }

// HubCacheEntries returns how many default traversal sources are
// cached (one per queried lineage tip).
func (e *Executor) HubCacheEntries() int64 {
	e.hubMu.Lock()
	defer e.hubMu.Unlock()
	return int64(len(e.hubs))
}

// CacheAdmitted returns result misses the doorkeeper let into the
// result cache (each key's second recent miss). Materialized hits,
// which enter it too, are MaterializedHits.
func (e *Executor) CacheAdmitted() int64 { return e.admitted.Load() }

// CacheDeferred returns result misses answered without caching because
// their key had not missed recently.
func (e *Executor) CacheDeferred() int64 { return e.deferred.Load() }

// GraphCacheAdmitted returns relabelings of a tip built on their key's
// second use (or after it was held before) and so cached.
func (e *Executor) GraphCacheAdmitted() int64 { return e.graphAdmitted.Load() }

// GraphCacheDeferred returns relabelings of a tip that served their
// query without being cached, their key's first build.
func (e *Executor) GraphCacheDeferred() int64 { return e.graphDeferred.Load() }

// MaterializeFails returns failed result-artifact writes.
func (e *Executor) MaterializeFails() int64 { return e.materializeFails.Load() }

// Workers reports the executor's configured kernel worker count.
func (e *Executor) Workers() int { return e.cfg.Workers }

// ResultCacheBytes returns the result LRU's current footprint.
func (e *Executor) ResultCacheBytes() int64 {
	_, b, _ := e.results.stats()
	return b
}

// ResultCacheEntries returns how many results the LRU holds.
func (e *Executor) ResultCacheEntries() int64 {
	n, _, _ := e.results.stats()
	return int64(n)
}

// ResultCacheEvictions returns how many results the LRU has evicted to
// stay within its budget.
func (e *Executor) ResultCacheEvictions() int64 {
	_, _, ev := e.results.stats()
	return ev
}

// GraphCacheBytes returns the relabeled-graph LRU's current footprint.
func (e *Executor) GraphCacheBytes() int64 {
	_, b, _ := e.graphs.stats()
	return b
}

// GraphCacheEntries returns how many relabeled graphs the LRU holds.
func (e *Executor) GraphCacheEntries() int64 {
	n, _, _ := e.graphs.stats()
	return int64(n)
}

// GraphCacheEvictions returns how many relabeled graphs the LRU has
// evicted to stay within its budget (InvalidateOrdering's removals are
// not counted).
func (e *Executor) GraphCacheEvictions() int64 {
	_, _, ev := e.graphs.stats()
	return ev
}
