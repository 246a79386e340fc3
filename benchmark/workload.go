package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gorder/internal/gen"
	"gorder/internal/graph"
)

// spec is one workload: a traffic mix against the daemon. Why each
// exists is recorded in BENCHMARK.json and README.md.
//
// The measured part of a run is a series of cycles. Each cycle is a
// latency segment of segOps ops, then a capacity window of capOps ops
// sent in a closed loop over every connection. Interleaving the two
// spreads both over the whole run, so a stretch of time in which the
// host runs slow touches a few cycles rather than a whole phase. The op
// counts are fixed, so every commit runs the same ops and builds the
// same state.
type spec struct {
	name      string
	hot       bool    // Zipf(1.2) BFS sources, and PR every 8th op
	editEvery int     // every editEvery-th op of a segment or window adds one edge (0: reads only)
	pipeline  bool    // ops are fresh graphs taken through upload, gorder job and PR query
	warmOps   int     // closed-loop warm-up ops before the first cycle, not measured
	rate      float64 // open-loop arrival rate of the latency segments, ops/s (0: one client, closed loop)
	segOps    int     // ops per latency segment
	capOps    int     // ops per capacity window
	cycleS    float64 // nominal length of one cycle, s; only used to count cycles
	setups    int     // set-ups per untraced run; setup_s is their median
	replayOps int     // ops the traced run replays in-process
}

var specs = []spec{
	{name: "query-cold", rate: 100, segOps: 100, capOps: 50, cycleS: 1.25, setups: 5, replayOps: 300},
	{name: "query-hot", hot: true, warmOps: 1000, rate: 300, segOps: 300, capOps: 400, cycleS: 1.4, setups: 5, replayOps: 600},
	{name: "edit-read", editEvery: 20, rate: 50, segOps: 60, capOps: 40, cycleS: 1.6, setups: 5, replayOps: 300},
	{name: "order-pipeline", pipeline: true, segOps: 6, capOps: 4, cycleS: 1.25, setups: 7, replayOps: 16},
}

// cycles is the number of cycles a run of the given length makes.
func (s spec) cycles(seconds float64) int {
	return max(2, int(math.Round(seconds/s.cycleS)))
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// sizes are the input sizes; the smoke test shrinks them.
type sizes struct {
	nodes     int // base web graph of the query workloads
	pipeNodes int // pipeline web graphs have pipeNodes..2*pipeNodes-1 vertices
	pipeScale int // pipeline R-MAT graphs have 2^pipeScale vertices
	verify    int // minimum number of sampled query answers checked
}

var fullSizes = sizes{nodes: 100000, pipeNodes: 8000, pipeScale: 12, verify: 200}

// op is one request of a query workload: a kernel query, or (kernel
// empty) an edit adding one edge.
type op struct {
	kernel  string
	source  int
	targets []int
	edge    graph.Edge
}

// opGen draws a workload's op stream from its seed.
type opGen struct {
	s    spec
	rng  *gen.RNG
	g    *graph.Graph
	zipf *gen.Zipf
	rank []uint32 // Zipf rank -> vertex
	used map[graph.Edge]bool
}

func newOpGen(s spec, g *graph.Graph, seed uint64) *opGen {
	o := &opGen{s: s, rng: gen.NewRNG(seed ^ 0x6f70), g: g, used: map[graph.Edge]bool{}}
	if s.hot {
		o.rank = o.rng.Perm(g.NumNodes())
		o.zipf = gen.NewZipf(o.rng, g.NumNodes(), 1.2)
	}
	return o
}

// ops draws the next count ops. Cold sources are uniform, with BFS and
// SP 3:1 so the median sits inside the BFS mode rather than in the gap
// between the modes; hot sources are Zipf(1.2) BFS sources, so about
// three queries in four hit the result cache.
func (o *opGen) ops(count int) []op {
	n := o.g.NumNodes()
	out := make([]op, count)
	for i := range out {
		switch {
		case o.s.editEvery > 0 && i%o.s.editEvery == o.s.editEvery-1:
			out[i] = op{edge: o.freshEdge()}
		case o.s.hot && i%8 == 7:
			out[i] = op{kernel: "PR"}
		default:
			k, src := "BFS", 0
			if o.s.hot {
				src = int(o.rank[o.zipf.Next()])
			} else {
				if o.rng.Intn(4) == 0 {
					k = "SP"
				}
				src = o.rng.Intn(n)
			}
			t := make([]int, 4)
			for j := range t {
				t[j] = o.rng.Intn(n)
			}
			out[i] = op{kernel: k, source: src, targets: t}
		}
	}
	return out
}

// freshEdge draws an edge that is neither in the base graph nor added
// before, so every edit creates a new version with one more edge.
func (o *opGen) freshEdge() graph.Edge {
	n := o.g.NumNodes()
	for {
		e := graph.Edge{From: graph.NodeID(o.rng.Intn(n)), To: graph.NodeID(o.rng.Intn(n))}
		if e.From != e.To && !o.used[e] && !o.g.HasEdge(e.From, e.To) {
			o.used[e] = true
			return e
		}
	}
}

// pipeGraph generates the i-th order-pipeline graph: two web graphs of
// pipeNodes..2*pipeNodes-1 vertices, then one R-MAT graph, repeating.
// i = -1 is the set-up graph, a web graph of pipeNodes vertices. Web
// sizes step through their range by the golden ratio rather than at
// random, so every seed times the same spread of sizes and only the
// edges differ.
func pipeGraph(sz sizes, seed uint64, i int) *graph.Graph {
	s := seed*1_000_003 + uint64(i+1)
	if i >= 0 && i%3 == 2 {
		return gen.RMAT(sz.pipeScale, 16, gen.DefaultRMAT, s)
	}
	_, frac := math.Modf(float64(i+1) * (math.Sqrt(5) - 1) / 2)
	return gen.Web(sz.pipeNodes+int(frac*float64(sz.pipeNodes)), gen.DefaultWeb, s)
}

// uploadable returns g as edge-list bytes, and the graph the daemon
// parses from them: an edge list cannot express trailing isolated
// vertices, so that graph can be smaller than g. Ops and oracles use it.
func uploadable(g *graph.Graph) ([]byte, *graph.Graph, error) {
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		return nil, nil, err
	}
	parsed, err := graph.ReadEdgeListBytes(buf.Bytes())
	return buf.Bytes(), parsed, err
}

// ---- requests -------------------------------------------------------------

type queryRequest struct {
	Graph   string `json:"graph"`
	Kernel  string `json:"kernel"`
	Source  *int   `json:"source,omitempty"`
	Targets []int  `json:"targets,omitempty"`
}

// queryAnswer is the part of a /query answer the benchmark checks.
type queryAnswer struct {
	Graph   string             `json:"graph"`
	Summary map[string]float64 `json:"summary"`
	Values  []struct {
		Node  int     `json:"node"`
		Value float64 `json:"value"`
	} `json:"values"`
	ElapsedUs int64 `json:"elapsed_us"`
}

type editAnswer struct {
	Graph graphInfo `json:"graph"`
}

type edgeJSON struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// result is the outcome of one op.
type result struct {
	status  int
	err     error
	lat     time.Duration // from the scheduled send (open loop) or the send
	service time.Duration // from the send to the whole answer
	query   *queryAnswer
	edit    *editAnswer
}

func (r result) ok() bool { return r.err == nil && r.status == http.StatusOK }

// Tri and PR are sent without targets: Tri has no per-vertex values,
// and PR is checked by its summary.
func (o op) request(graphName string) queryRequest {
	q := queryRequest{Graph: graphName, Kernel: o.kernel}
	if o.kernel == "BFS" || o.kernel == "SP" {
		q.Source, q.Targets = &o.source, o.targets
	}
	return q
}

func send(c *client, graphName string, o op) result {
	t := time.Now()
	var r result
	if o.kernel == "" {
		r.edit = new(editAnswer)
		body := map[string][]edgeJSON{"add": {{From: int(o.edge.From), To: int(o.edge.To)}}}
		r.status, r.err = c.postJSON("/graphs/"+graphName+"/edges", body, r.edit)
	} else {
		r.query = new(queryAnswer)
		r.status, r.err = c.postJSON("/query", o.request(graphName), r.query)
	}
	r.service = time.Since(t)
	return r
}

// closedLoop runs do(0), ..., do(n-1) on conns workers, each starting
// its next index when its previous call returns, and returns the time
// the n calls took.
func closedLoop(n, conns int, do func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// sendAll sends ops in a closed loop over conns connections.
func sendAll(c *client, graphName string, ops []op, conns int) ([]result, time.Duration) {
	res := make([]result, len(ops))
	took := closedLoop(len(ops), conns, func(i int) {
		t := time.Now()
		res[i] = send(c, graphName, ops[i])
		res[i].lat = time.Since(t)
	})
	return res, took
}

// openLoop sends op i at start + i/rate whatever the daemon's state,
// with at most conns in flight, and times each op from when it was due.
// lateness holds how late the generator sent the ops for which a
// connection was free when they were due.
func openLoop(c *client, graphName string, ops []op, rate float64, conns int) (res []result, lateness []float64) {
	res = make([]result, len(ops))
	slots := make(chan struct{}, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ops {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		select {
		case slots <- struct{}{}:
			lateness = append(lateness, ms(time.Since(due)))
		default:
			slots <- struct{}{}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i] = send(c, graphName, ops[i])
			res[i].lat = time.Since(due)
			<-slots
		}(i)
	}
	wg.Wait()
	return res, lateness
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---- set-up -----------------------------------------------------------------

// env is where a run starts daemons.
type env struct {
	gorderd string // daemon binary
	work    string // scratch directory inside the checkout
	conns   int    // client connections: the host's CPU count
}

// setup is a daemon brought to its measured starting state.
type setup struct {
	d       *daemon
	c       *client
	stopped bool
}

func (s *setup) stop() {
	if !s.stopped {
		s.stopped = true
		s.c.close()
		s.d.stop()
	}
}

// setUp starts n fresh daemons one after another, each with its own
// data directory, and runs prepare on each; it keeps the last one and
// appends to meas.setupS the time each took from daemon start to
// prepared.
func (e env) setUp(n int, meas *measured, prepare func(c *client) error) (*setup, error) {
	for i := 0; ; i++ {
		t0 := time.Now()
		d, err := startDaemon(e.gorderd, e.work)
		if err != nil {
			return nil, err
		}
		s := &setup{d: d, c: newClient(d.url, e.conns)}
		if err := prepare(s.c); err != nil {
			s.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		meas.setupS = append(meas.setupS, time.Since(t0).Seconds())
		if i == n-1 {
			return s, nil
		}
		s.stop()
	}
}

// pipeline uploads text as name, orders it with gorder, and queries
// PR over the ordering: the paper's end-to-end cost of one graph.
type pipelineResult struct {
	lat, job  time.Duration
	prService time.Duration // the PR query, send to answer
	status    jobStatus
	pr        queryAnswer
}

func runPipeline(c *client, name string, text []byte) (pipelineResult, error) {
	var p pipelineResult
	t0 := time.Now()
	if _, err := c.upload(name, text); err != nil {
		return p, err
	}
	var err error
	if p.status, p.job, err = c.orderJob(name); err != nil {
		return p, err
	}
	t1 := time.Now()
	status, err := c.postJSON("/query", queryRequest{Graph: name, Kernel: "PR"}, &p.pr)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("PR query on %s: status %d", name, status)
	}
	p.prService = time.Since(t1)
	p.lat = time.Since(t0)
	return p, err
}
