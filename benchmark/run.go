package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
)

// outcome is what one run of one workload reports.
type outcome struct {
	attempted, failed int
	checked, wrong    int
	metrics           map[string]float64
	invalid           string // why the run's timings cannot be trusted, if they cannot
}

// run is one run of one workload.
type run struct {
	env
	s       spec
	sz      sizes
	seed    uint64
	seconds float64
	traced  bool
	spans   string // where the traced run writes its spans
}

// maxLatenessMs is the generator lateness past which an open-loop run
// no longer measures the daemon.
const maxLatenessMs = 5

func (r run) do() (*outcome, error) {
	if r.s.pipeline {
		return r.pipelineWorkload()
	}
	return r.queryWorkload()
}

func (r run) setups() int {
	if r.traced {
		return 1
	}
	return r.s.setups
}

// measured is what the daemon side of a run measured.
type measured struct {
	setupS   []float64     // each set-up, daemon start to a warm, ordered graph
	lats     []float64     // latency segments: each op, ms
	capOps   int           // capacity windows: ops sent
	capTime  time.Duration // capacity windows: time they took
	lateness []float64     // how late the generator sent, ms
	overhead []float64     // client service time minus the daemon's elapsed_us, µs
	jobMs    []float64     // order jobs: submit to observed done
	jobRunMs []float64     // order jobs: the daemon's duration_ms
	m0, m1   map[string]int64
	rssMB    float64
}

// endToEnd fills the end-to-end metrics.
func (me *measured) endToEnd(m map[string]float64) {
	m["setup_s"] = median(me.setupS)
	m["peak_rss_mb"] = me.rssMB
}

// perLayer fills the per-layer metrics read from the daemon: its
// capacity and latency, whose run-to-run spread is too wide for a bound,
// /metrics deltas over the measured cycles, answer fields and job
// statuses.
func (me *measured) perLayer(m map[string]float64) {
	d := func(name string) float64 { return delta(me.m0, me.m1, name) }
	hits, misses := d("query_cache_hits_total"), d("query_cache_misses_total")
	m["capacity.ops_s"] = float64(me.capOps) / me.capTime.Seconds()
	m["latency.p50_ms"] = percentile(me.lats, 50)
	m["latency.tail_ms"] = percentile(me.lats, tailPercentile(len(me.lats)))
	m["query.cache_hit_ratio"] = hits / max(1, hits+misses)
	m["query.kernel_runs"] = d("query_kernel_runs_total")
	m["query.relabel_builds"] = d("query_relabel_builds_total")
	m["http.overhead_p50_us"] = percentile(me.overhead, 50)
	m["loadgen.lateness_p99_ms"] = percentile(me.lateness, 99)
	m["server.order_job_p50_ms"] = median(me.jobMs)
	m["server.job_run_p50_ms"] = median(me.jobRunMs)
	m["server.shed"] = d("query_shed_total") + d("jobs_shed_total") + d("rate_limited_total") + d("query_rejected_total")
	m["core.heap_ops"] = float64(me.m1["ordering_heap_ops_total"])
	m["store.graph_reloads"] = d("store_graph_reloads_total")
	m["store.resident_mb"] = float64(me.m1["store_resident_bytes"]) / (1 << 20)
}

func (me *measured) addOverhead(service time.Duration, a *queryAnswer) {
	me.overhead = append(me.overhead, float64(service.Microseconds()-a.ElapsedUs))
}

// queryWorkload runs query-cold, query-hot and edit-read: set up, warm
// up, then the measured cycles of an open-loop latency segment and a
// closed-loop capacity window.
func (r run) queryWorkload() (*outcome, error) {
	text, g, err := uploadable(gen.Web(r.sz.nodes, gen.DefaultWeb, r.seed))
	if err != nil {
		return nil, err
	}
	og := newOpGen(r.s, g, r.seed)
	warm := og.ops(r.s.warmOps)
	n := r.s.cycles(r.seconds)
	segs, wins := make([][]op, n), make([][]op, n)
	for i := range n {
		segs[i], wins[i] = og.ops(r.s.segOps), og.ops(r.s.capOps)
	}

	const name = "g"
	var meas measured
	var base graphInfo
	su, err := r.setUp(r.setups(), &meas, func(c *client) error {
		var err error
		if base, err = c.upload(name, text); err != nil {
			return err
		}
		st, took, err := c.orderJob(name)
		if err != nil {
			return err
		}
		meas.jobMs, meas.jobRunMs = append(meas.jobMs, ms(took)), append(meas.jobRunMs, float64(st.DurationMs))
		// The first query over the ordering pays its relabel.
		if w := send(c, name, op{kernel: "BFS", targets: []int{0}}); !w.ok() {
			return fmt.Errorf("warm query: status %d: %v", w.status, w.err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer su.stop()

	ops := append([]op(nil), warm...)
	res, _ := sendAll(su.c, name, warm, r.conns)
	if meas.m0, err = su.c.counters(); err != nil {
		return nil, err
	}
	for i := range n {
		sr, late := openLoop(su.c, name, segs[i], r.s.rate, r.conns)
		wr, took := sendAll(su.c, name, wins[i], r.conns)
		for _, x := range sr {
			meas.lats = append(meas.lats, ms(x.lat))
			if x.ok() && x.query != nil {
				meas.addOverhead(x.service, x.query)
			}
		}
		meas.lateness = append(meas.lateness, late...)
		meas.capOps, meas.capTime = meas.capOps+len(wins[i]), meas.capTime+took
		ops, res = append(append(ops, segs[i]...), wins[i]...), append(append(res, sr...), wr...)
	}
	if meas.m1, err = su.c.counters(); err != nil {
		return nil, err
	}
	if meas.rssMB, err = su.d.peakRSSMB(); err != nil {
		return nil, err
	}

	var ck checker
	final := ck.checkQueries(g, base.ID, ops, res, r.sz.verify)
	if r.s.editEvery > 0 {
		if err := ck.finalVersion(su.c, name, final); err != nil {
			return nil, err
		}
	}
	su.stop()

	out := &outcome{attempted: len(ops), checked: ck.checked, wrong: ck.wrong, metrics: map[string]float64{}}
	for _, x := range res {
		if !x.ok() {
			out.failed++
		}
	}
	out.failed += ck.wrong
	if p99 := percentile(meas.lateness, 99); p99 > maxLatenessMs {
		out.invalid = fmt.Sprintf("generator lateness p99 %.2f ms exceeds %d ms", p99, maxLatenessMs)
	}
	if !r.traced {
		meas.endToEnd(out.metrics)
		return out, nil
	}
	meas.perLayer(out.metrics)
	return out, r.replayQueries(out.metrics, g, text, ops, res)
}

// replayQueries is the traced part of a query workload: the set-up and
// the first replayOps ops of the stream, replayed in-process, then the
// probe, then the kernels timed on the base graph.
func (r run) replayQueries(m map[string]float64, g *graph.Graph, text []byte, ops []op, res []result) error {
	rp, err := newReplayer(filepath.Join(r.work, fmt.Sprintf("replay-%d", os.Getpid())))
	if err != nil {
		return err
	}
	const name = "g"
	root := rp.tr.begin("op.setup", 0, 0)
	_, perm, err := rp.ingest(0, root, name, text)
	rp.tr.end(root)
	n := min(len(ops), r.s.replayOps)
	var serverMs float64
	for i := 0; i < n && err == nil; i++ {
		o := ops[i]
		if o.kernel == "" {
			root = rp.tr.begin("op.edit", i+1, 0)
			err = rp.edit(i+1, root, name, o.edge)
			serverMs += ms(res[i].service)
		} else {
			root = rp.tr.begin("op.query", i+1, 0)
			err = rp.query(i+1, root, o.request(name))
			if res[i].query != nil {
				serverMs += float64(res[i].query.ElapsedUs) / 1e3
			}
		}
		rp.tr.end(root)
	}
	if err == nil {
		err = rp.probe(n+1, name, g, r.seed)
	}
	if cerr := rp.close(r.spans); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	rp.metrics(m, g.NumEdges(), serverMs)
	return r.kernelAndScore(m, g, perm)
}

func (r run) kernelAndScore(m map[string]float64, g *graph.Graph, perm order.Permutation) error {
	rng := gen.NewRNG(r.seed ^ 0x6b65)
	var sources []int
	for len(sources) < 5 {
		if v := rng.Intn(g.NumNodes()); g.OutDegree(graph.NodeID(v)) > 0 {
			sources = append(sources, v)
		}
	}
	km, err := kernelMetrics(context.Background(), g, perm, sources)
	if err != nil {
		return err
	}
	for k, v := range km {
		m[k] = v
	}
	for k, v := range scoreMetrics(g, perm) {
		m[k] = v
	}
	return nil
}

// pipeInput is one order-pipeline graph, with what is needed to check
// the daemon's answers for it.
type pipeInput struct {
	text []byte
	g    *graph.Graph
	pr   []float64 // PageRank oracle
}

func (r run) pipeInputs(from, count int) ([]pipeInput, error) {
	in := make([]pipeInput, count)
	for i := range in {
		text, g, err := uploadable(pipeGraph(r.sz, r.seed, from+i))
		if err != nil {
			return nil, err
		}
		in[i] = pipeInput{text: text, g: g, pr: pageRankOracle(g)}
	}
	return in, nil
}

// pipelineWorkload runs order-pipeline. Each fresh graph is uploaded,
// ordered with gorder and queried with PR; a latency segment takes its
// graphs through one at a time on one client, a capacity window on every
// connection at once. Each cycle's graphs are generated before the cycle.
func (r run) pipelineWorkload() (*outcome, error) {
	warmText, warmG, err := uploadable(pipeGraph(r.sz, r.seed, -1))
	if err != nil {
		return nil, err
	}
	var meas measured
	su, err := r.setUp(r.setups(), &meas, func(c *client) error {
		_, err := runPipeline(c, "warm", warmText)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer su.stop()

	if meas.m0, err = su.c.counters(); err != nil {
		return nil, err
	}
	var ck checker
	out := &outcome{metrics: map[string]float64{}}
	var replayTexts [][]byte
	var replayMs []float64
	perCycle := r.s.segOps + r.s.capOps
	for cyc := range r.s.cycles(r.seconds) {
		first := cyc * perCycle
		in, err := r.pipeInputs(first, perCycle)
		if err != nil {
			return nil, err
		}
		ps, errs := make([]pipelineResult, perCycle), make([]error, perCycle)
		do := func(i int) {
			ps[i], errs[i] = runPipeline(su.c, fmt.Sprintf("p%d", first+i), in[i].text)
		}
		for i := range r.s.segOps {
			do(i)
		}
		took := closedLoop(r.s.capOps, r.conns, func(i int) { do(r.s.segOps + i) })
		meas.capOps, meas.capTime = meas.capOps+r.s.capOps, meas.capTime+took
		for i, p := range ps {
			out.attempted++
			if errs[i] != nil {
				fmt.Fprintf(os.Stderr, "pipeline %d: %v\n", first+i, errs[i])
				out.failed++
				continue
			}
			if i < r.s.segOps {
				meas.lats = append(meas.lats, ms(p.lat))
			}
			meas.addOverhead(p.prService, &p.pr)
			meas.jobMs, meas.jobRunMs = append(meas.jobMs, ms(p.job)), append(meas.jobRunMs, float64(p.status.DurationMs))
			ck.pageRank(in[i].pr, &p.pr)
			if first+i < 10 {
				if err := ck.permutation(su.c, p.status.ID, in[i].g); err != nil {
					return nil, err
				}
			}
			if len(replayTexts) < r.s.replayOps {
				replayTexts, replayMs = append(replayTexts, in[i].text), append(replayMs, ms(p.lat))
			}
		}
	}
	if meas.m1, err = su.c.counters(); err != nil {
		return nil, err
	}
	if meas.rssMB, err = su.d.peakRSSMB(); err != nil {
		return nil, err
	}
	meas.lateness = su.c.pollLate
	su.stop()

	out.checked, out.wrong = ck.checked, ck.wrong
	out.failed += ck.wrong
	if !r.traced {
		meas.endToEnd(out.metrics)
		return out, nil
	}
	meas.perLayer(out.metrics)
	return out, r.replayPipelines(out.metrics, warmG, warmText, replayTexts, replayMs)
}

// replayPipelines is the traced part of order-pipeline: the set-up
// graph, then the first replayOps pipelines, replayed in-process, then
// the probe on the set-up graph.
func (r run) replayPipelines(m map[string]float64, warmG *graph.Graph, warmText []byte, texts [][]byte, serviceMs []float64) error {
	rp, err := newReplayer(filepath.Join(r.work, fmt.Sprintf("replay-%d", os.Getpid())))
	if err != nil {
		return err
	}
	root := rp.tr.begin("op.setup", 0, 0)
	_, perm, err := rp.ingest(0, root, "warm", warmText)
	if err == nil {
		err = rp.query(0, root, queryRequest{Graph: "warm", Kernel: "PR"})
	}
	rp.tr.end(root)
	var serverMs float64
	edges := warmG.NumEdges()
	for i := 0; i < len(texts) && err == nil; i++ {
		name := fmt.Sprintf("p%d", i)
		root = rp.tr.begin("op.pipeline", i+1, 0)
		var g *graph.Graph
		if g, _, err = rp.ingest(i+1, root, name, texts[i]); err == nil {
			edges += g.NumEdges()
			err = rp.query(i+1, root, queryRequest{Graph: name, Kernel: "PR"})
		}
		rp.tr.end(root)
		serverMs += serviceMs[i]
	}
	if err == nil {
		err = rp.probe(len(texts)+1, "warm", warmG, r.seed)
	}
	if cerr := rp.close(r.spans); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	rp.metrics(m, edges, serverMs)
	return r.kernelAndScore(m, warmG, perm)
}
