package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"time"

	"gorder/internal/core"
	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
	"gorder/internal/query"
	"gorder/internal/registry"
	"gorder/internal/store"
)

// replayer re-runs a workload's op stream in-process, calling the
// public entry points of each layer in the order the daemon calls them
// and recording a span around each call.
type replayer struct {
	ctx    context.Context
	tr     *tracer
	st     *store.Store
	ex     *query.Executor
	src    *replaySource
	optKey string // the gorder artifact key, as the daemon stores it

	// The relabeled tip, for beside kernel runs when the executor reused
	// its own cached relabeling.
	relabDigest string
	relabG      *graph.Graph
	scratch     registry.QueryScratch

	runUs map[bool][]float64 // Executor.Run durations, µs, by cache hit
}

// replaySource is the executor's view of the replay store. Its Resolve
// span wraps Store.GetGraph, under the query.run span of the current op.
type replaySource struct {
	st         *store.Store
	tr         *tracer
	nodes      map[string]int // digest -> vertex count
	op, parent int
}

func (s *replaySource) digest(ref string) (string, bool) {
	if _, ok := s.nodes[ref]; ok {
		return ref, true
	}
	d, _, _, err := s.st.ResolveVersion(ref, 0)
	return d, err == nil
}

func (s *replaySource) Stat(ref string) (string, int, bool) {
	d, ok := s.digest(ref)
	return d, s.nodes[d], ok
}

func (s *replaySource) Resolve(ref string) (*graph.Graph, string, bool) {
	d, ok := s.digest(ref)
	if !ok {
		return nil, "", false
	}
	var g *graph.Graph
	var err error
	s.tr.do("store.get_graph", s.op, s.parent, func() { g, err = s.st.GetGraph(d) })
	return g, d, err == nil
}

func newReplayer(dir string) (*replayer, error) {
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	_, key, err := registry.OptionsKey("gorder", registry.Options{})
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	src := &replaySource{st: st, tr: tr, nodes: map[string]int{}}
	// Workers 1 is the daemon's default -kernel-workers.
	ex := query.New(query.Config{Source: src, Store: st, Workers: 1})
	return &replayer{ctx: context.Background(), tr: tr, st: st, ex: ex, src: src, optKey: key,
		runUs: map[bool][]float64{}}, nil
}

// ingest replays an upload and its gorder job: parse, persist, order,
// persist the ordering. It returns the graph and its permutation.
func (r *replayer) ingest(opID, root int, name string, text []byte) (*graph.Graph, order.Permutation, error) {
	var g *graph.Graph
	var err error
	r.tr.do("graph.ingest", opID, root, func() { g, err = graph.ReadEdgeListStream(bytes.NewReader(text)) })
	if err != nil {
		return nil, nil, err
	}
	sum := sha256.Sum256(text)
	digest := hex.EncodeToString(sum[:8])
	r.tr.do("store.put_graph", opID, root, func() { err = r.st.PutGraph(digest, name, g, int64(len(text))) })
	if err != nil {
		return nil, nil, err
	}
	r.src.nodes[digest] = g.NumNodes()
	var perm order.Permutation
	r.tr.do("core.gorder", opID, root, func() {
		perm, _, err = registry.ComputeObserved(r.ctx, g, "gorder", registry.Options{})
	})
	if err != nil {
		return nil, nil, err
	}
	r.tr.do("store.put_order", opID, root, func() { err = r.st.PutOrder(digest, "gorder", r.optKey, perm) })
	return g, perm, err
}

// query replays one query through Executor.Run. When the executor
// relabeled or ran a kernel inside Run, the same relabel and kernel
// call run again beside it, so each gets a span.
func (r *replayer) query(opID, root int, q queryRequest) error {
	kernels, relabels := r.ex.KernelRuns(), r.ex.RelabelBuilds()
	id := r.tr.begin("query.run", opID, root)
	r.src.op, r.src.parent = opID, id
	resp, qerr := r.ex.Run(r.ctx, query.Request{Graph: q.Graph, Kernel: q.Kernel, Source: q.Source, Targets: q.Targets})
	r.tr.end(id)
	if qerr != nil {
		return qerr
	}
	r.runUs[resp.CacheHit] = append(r.runUs[resp.CacheHit], float64(r.tr.spans[id-1].dur())/1e3)
	relabeled, ran := r.ex.RelabelBuilds() > relabels, r.ex.KernelRuns() > kernels
	if !relabeled && !ran {
		return nil
	}
	g, err := r.st.GetGraph(resp.Graph)
	if err != nil {
		return err
	}
	perm, ok := r.st.GetOrder(resp.Graph, "gorder", r.optKey, g.NumNodes())
	if !ok {
		return fmt.Errorf("replay: no gorder artifact for %s", resp.Graph)
	}
	if relabeled || r.relabDigest != resp.Graph {
		r.relabDigest = resp.Graph
		if relabeled {
			r.tr.beside("graph.relabel", opID, id, func() { r.relabG = g.Relabel(perm) })
		} else {
			r.relabG = g.Relabel(perm)
		}
	}
	if !ran {
		return nil
	}
	k, _ := registry.LookupKernel(q.Kernel)
	p := registry.KernelParams{SPSource: -1, Workers: 1}
	if q.Source != nil {
		p.SPSource = int(perm[*q.Source])
	}
	r.tr.beside("kernel.query", opID, id, func() { _, err = k.Query(r.ctx, r.relabG, p, &r.scratch) })
	return err
}

// edit replays POST /graphs/{name}/edges: derive the next version,
// persist it, and carry the gorder artifact forward.
func (r *replayer) edit(opID, root int, name string, e graph.Edge) error {
	oldDigest, ok := r.src.digest(name)
	if !ok {
		return fmt.Errorf("replay: no lineage %s", name)
	}
	var gOld, gNew *graph.Graph
	var err error
	r.tr.do("store.get_graph", opID, root, func() { gOld, err = r.st.GetGraph(oldDigest) })
	if err != nil {
		return err
	}
	add := []graph.Edge{e}
	r.tr.do("graph.apply_edits", opID, root, func() { gNew, _, err = graph.ApplyEdits(gOld, 0, add, nil) })
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	r.tr.do("graph.serialize", opID, root, func() { err = gNew.WriteBinary(&buf) })
	if err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())
	digest := hex.EncodeToString(sum[:8])
	r.tr.do("store.append_version", opID, root, func() {
		_, err = r.st.AppendVersion(name, digest, gNew, int64(buf.Len()))
	})
	if err != nil {
		return err
	}
	r.src.nodes[digest] = gNew.NumNodes()
	var base, perm order.Permutation
	r.tr.do("store.get_order", opID, root, func() {
		base, ok = r.st.GetOrder(oldDigest, "gorder", r.optKey, gOld.NumNodes())
	})
	if !ok {
		return fmt.Errorf("replay: no gorder artifact for %s", oldDigest)
	}
	opt := core.Options{Window: core.DefaultWindow}
	r.tr.do("core.incremental", opID, root, func() { perm, err = core.OrderIncrementalCtx(r.ctx, gNew, base, nil, opt) })
	if err != nil {
		return err
	}
	r.tr.do("store.put_order", opID, root, func() { err = r.st.PutOrder(digest, "gorder", r.optKey, perm) })
	if err != nil {
		return err
	}
	r.tr.do("order.score_delta", opID, root, func() { order.ScoreDelta(gOld, gNew, perm, opt.Window, add, nil) })
	return nil
}

// probe runs, after the replayed stream, one of each call the stream
// may lack, so every per-layer metric is measured on every workload: a
// BFS query (a result-cache miss), the same query again (a hit), three
// one-edge edits, and the query over the edited tip (a relabel and a
// kernel run). The probe's spans share one op ID.
func (r *replayer) probe(opID int, name string, g *graph.Graph, seed uint64) error {
	src := int(registry.HubSource(g))
	q := queryRequest{Graph: name, Kernel: "BFS", Source: &src}
	root := r.tr.begin("op.probe", opID, 0)
	defer r.tr.end(root)
	rng := gen.NewRNG(seed ^ 0x7072)
	for i := 0; i < 2; i++ {
		if err := r.query(opID, root, q); err != nil {
			return err
		}
	}
	for i := 0; i < 3; {
		e := graph.Edge{From: graph.NodeID(rng.Intn(g.NumNodes())), To: graph.NodeID(rng.Intn(g.NumNodes()))}
		if e.From == e.To || g.HasEdge(e.From, e.To) {
			continue
		}
		if err := r.edit(opID, root, name, e); err != nil {
			return err
		}
		i++
	}
	return r.query(opID, root, q)
}

// layers are the layers whose self time the trace reports.
var layers = []string{"graph", "store", "core", "order", "query", "kernel"}

// medianCalls are the calls whose median duration the trace reports,
// with the unit it is reported in.
var medianCalls = []struct{ span, unit string }{
	{"graph.relabel", "ms"},
	{"graph.apply_edits", "ms"},
	{"store.put_graph", "ms"},
	{"store.append_version", "ms"},
	{"store.put_order", "ms"},
	{"store.get_order", "ms"},
	{"core.gorder", "ms"},
	{"core.incremental", "ms"},
	{"order.score_delta", "us"},
}

var unitNs = map[string]float64{"ms": 1e6, "us": 1e3}

// metrics reduces the spans to the per-layer replay metrics: self time
// per op of each layer, per-call medians, and coverage — the replayed
// stream's time, beside spans excluded, over the daemon's time for the
// same ops (serverMs).
func (r *replayer) metrics(m map[string]float64, edges int64, serverMs float64) {
	spans := r.tr.spans
	self := selfTimes(spans)
	layerNs := map[string]int64{}
	calls := map[string][]float64{}
	stream := map[int]bool{} // op IDs of the replayed stream: not the set-up or the probe
	ops := 0
	var replayNs int64
	for _, s := range spans {
		if s.Parent == 0 {
			ops++
			if s.Name != "op.setup" && s.Name != "op.probe" {
				stream[s.OpID] = true
				replayNs += s.dur()
			}
		}
	}
	for i, s := range spans {
		layerNs[s.layer()] += self[i]
		calls[s.Name] = append(calls[s.Name], float64(s.dur()))
		if s.Beside && stream[s.OpID] {
			replayNs -= s.dur()
		}
	}
	for _, l := range layers {
		m["self_ms_per_op."+l] = float64(layerNs[l]) / 1e6 / float64(ops)
	}
	for _, c := range medianCalls {
		m[c.span+"_"+c.unit] = median(calls[c.span]) / unitNs[c.unit]
	}
	var ingestNs float64
	for _, d := range calls["graph.ingest"] {
		ingestNs += d
	}
	m["graph.ingest_ns_per_edge"] = ingestNs / float64(edges)
	m["query.run_us.hit"] = median(r.runUs[true])
	m["query.run_us.miss"] = median(r.runUs[false])
	m["trace.coverage"] = float64(replayNs) / 1e6 / serverMs
}

// kernelMetrics times the four parallel query kernels through
// Kernel.Query on g in natural order and in gorder order, serially and
// on two workers. BFS and SP take the median over sources; PR and Tri,
// which take no source, the median of three runs.
func kernelMetrics(ctx context.Context, g *graph.Graph, perm order.Permutation, sources []int) (map[string]float64, error) {
	og := g.Relabel(perm)
	m := map[string]float64{}
	for _, name := range []string{"BFS", "SP", "PR", "Tri"} {
		k, _ := registry.LookupKernel(name)
		srcs := sources
		if name == "PR" || name == "Tri" {
			srcs = []int{-1, -1, -1}
		}
		timeOn := func(h *graph.Graph, p order.Permutation, workers int) (float64, error) {
			var s registry.QueryScratch
			var ts []float64
			for _, src := range srcs {
				kp := registry.KernelParams{SPSource: src, Workers: workers}
				if src >= 0 && p != nil {
					kp.SPSource = int(p[src])
				}
				t := time.Now()
				if _, err := k.Query(ctx, h, kp, &s); err != nil {
					return 0, fmt.Errorf("%s: %w", name, err)
				}
				ts = append(ts, ms(time.Since(t)))
			}
			return median(ts), nil
		}
		nat, err := timeOn(g, nil, 1)
		if err != nil {
			return nil, err
		}
		w1, err := timeOn(og, perm, 1)
		if err != nil {
			return nil, err
		}
		w2, err := timeOn(og, perm, 2)
		if err != nil {
			return nil, err
		}
		key := "kernel." + strings.ToLower(name)
		m[key+"_ms.natural.w1"] = nat
		m[key+"_ms.gorder.w1"] = w1
		m[key+"_ms.gorder.w2"] = w2
		m[key+"_gorder_speedup.w1"] = nat / w1
		m[key+"_parallel_speedup"] = w1 / w2
	}
	return m, nil
}

// scoreMetrics reports the gorder permutation's locality score F and
// its gain over the natural order: exact counts, machine-independent.
func scoreMetrics(g *graph.Graph, perm order.Permutation) map[string]float64 {
	f := order.Score(g, perm, core.DefaultWindow)
	return map[string]float64{
		"order.score_F":      float64(f),
		"order.score_F_gain": float64(f) / float64(order.Score(g, order.Identity(g.NumNodes()), core.DefaultWindow)),
	}
}

// closeReplay writes the spans and removes the replay store.
func (r *replayer) close(spansPath string) error {
	err := r.tr.write(spansPath)
	os.RemoveAll(r.st.Dir())
	return err
}
