package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"gorder/internal/benchdiff"
	"gorder/internal/gen"
)

// Routes the generator exercises. Uploads and edits are writes,
// orders go through the job queue, queries through the read gate —
// together they cover every admission path the traffic tier has.
const (
	RouteUpload = "upload"
	RouteOrder  = "order"
	RouteQuery  = "query"
	RouteEdit   = "edit"
)

// Mix weights the operation mix. Zero-valued fields never run.
type Mix struct {
	Query, Order, Upload, Edit int
}

// DefaultMix is query-heavy with a trickle of writes — the shape of a
// serving deployment.
var DefaultMix = Mix{Query: 12, Order: 2, Upload: 1, Edit: 1}

// QueryHeavyMix is the read-dominated preset for benchmarking the
// kernel tier itself: writes reduced to a keep-alive trickle so the
// run measures kernel execution and the result cache, not ingest.
var QueryHeavyMix = Mix{Query: 40, Order: 1, Upload: 1, Edit: 1}

// MixPresets are the named mixes -mix accepts in place of
// route=weight syntax.
var MixPresets = map[string]Mix{
	"default":     DefaultMix,
	"query-heavy": QueryHeavyMix,
}

func (m Mix) total() int { return m.Query + m.Order + m.Upload + m.Edit }

// pick maps a uniform draw in [0, total) to a route.
func (m Mix) pick(n int) string {
	if n -= m.Query; n < 0 {
		return RouteQuery
	}
	if n -= m.Order; n < 0 {
		return RouteOrder
	}
	if n -= m.Upload; n < 0 {
		return RouteUpload
	}
	return RouteEdit
}

// ParseMix parses "query=12,order=2,upload=1,edit=1" or a preset name
// from MixPresets ("default", "query-heavy").
func ParseMix(s string) (Mix, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return DefaultMix, nil
	}
	if m, ok := MixPresets[s]; ok {
		return m, nil
	}
	var m Mix
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Mix{}, fmt.Errorf("loadgen: mix %q is not route=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return Mix{}, fmt.Errorf("loadgen: mix weight %q must be a non-negative integer", part)
		}
		switch name {
		case RouteQuery:
			m.Query = w
		case RouteOrder:
			m.Order = w
		case RouteUpload:
			m.Upload = w
		case RouteEdit:
			m.Edit = w
		default:
			return Mix{}, fmt.Errorf("loadgen: unknown route %q (known: query, order, upload, edit)", name)
		}
	}
	if m.total() == 0 {
		return Mix{}, fmt.Errorf("loadgen: mix has no positive weights")
	}
	return m, nil
}

// Config describes one load run.
type Config struct {
	URL         string        // daemon base URL, e.g. http://127.0.0.1:8080
	Duration    time.Duration // wall time to drive traffic for
	Concurrency int           // closed-loop workers (and open-loop in-flight bound)
	Rate        float64       // open-loop arrival rate in req/s; 0 = closed loop
	Mix         Mix
	Tenants     []string // X-Tenant values rotated across requests ("" = none)
	Graph       string   // registered graph queries/orders/edits target
	Nodes       int      // node count of the target graph (query source range)
	// Kernels are rotated uniformly across query operations (default
	// BFS only). Non-source kernels ignore the source field at the
	// canonicalization layer, so any registry queryable name works.
	Kernels []string
	Seed    uint64
	Client  *http.Client // optional; defaults to a pooled client
}

// RouteStats is one route's slice of a Result: the error taxonomy and
// the latency distribution of its successful requests, microseconds.
// Shed (429) is backpressure working as designed, counted apart from
// errors.
type RouteStats struct {
	Route                              string
	Count, OK, Shed                    int64
	ClientErrs, ServerErrs, NetErrs    int64
	P50Us, P90Us, P99Us, P999Us, MaxUs int64
	MeanUs                             float64
}

// Result is one run's report.
type Result struct {
	Name               string
	DurationS          float64
	Requests, OK, Shed int64
	Errors             int64 // server + network
	ThroughputRPS      float64
	Routes             []RouteStats
}

// Rows flattens the result into BENCH_serve.json rows: run totals
// under the run's name, and each route's counts and latency
// percentiles under name/route (e.g. mixed-c16/query · p99_us).
func (res Result) Rows() []benchdiff.Row {
	var rows []benchdiff.Row
	add := func(name, metric, unit string, v float64) {
		rows = append(rows, benchdiff.Row{Name: name, Metric: metric, Unit: unit, Value: v})
	}
	add(res.Name, "duration_s", "s", res.DurationS)
	add(res.Name, "requests", "count", float64(res.Requests))
	add(res.Name, "ok", "count", float64(res.OK))
	add(res.Name, "shed", "count", float64(res.Shed))
	add(res.Name, "errors", "count", float64(res.Errors))
	add(res.Name, "throughput_rps", "1/s", res.ThroughputRPS)
	for _, rt := range res.Routes {
		name := res.Name + "/" + rt.Route
		add(name, "count", "count", float64(rt.Count))
		add(name, "ok", "count", float64(rt.OK))
		add(name, "shed", "count", float64(rt.Shed))
		add(name, "client_errors", "count", float64(rt.ClientErrs))
		add(name, "server_errors", "count", float64(rt.ServerErrs))
		add(name, "net_errors", "count", float64(rt.NetErrs))
		add(name, "p50_us", "us", float64(rt.P50Us))
		add(name, "p90_us", "us", float64(rt.P90Us))
		add(name, "p99_us", "us", float64(rt.P99Us))
		add(name, "p999_us", "us", float64(rt.P999Us))
		add(name, "mean_us", "us", rt.MeanUs)
		add(name, "max_us", "us", float64(rt.MaxUs))
	}
	return rows
}

// routeRec is one worker's accumulator for one route.
type routeRec struct {
	count, ok, shed, clientErr, serverErr, netErr int64
	lat                                           Hist
}

// worker owns its recorders and RNG; merged after the run.
type worker struct {
	recs map[string]*routeRec
	rng  *rand.Rand
}

func (w *worker) rec(route string) *routeRec {
	r := w.recs[route]
	if r == nil {
		r = &routeRec{}
		w.recs[route] = r
	}
	return r
}

// record classifies one response. Latency is recorded for successes
// only — percentiles describe served traffic, not rejection speed.
func (r *routeRec) record(status int, err error, us int64) {
	r.count++
	switch {
	case err != nil:
		r.netErr++
	case status == http.StatusTooManyRequests:
		r.shed++
	case status == http.StatusNotImplemented:
		// A capability the deployment lacks (edits without a store), not
		// an overload failure.
		r.clientErr++
	case status >= 500:
		r.serverErr++
	case status >= 400:
		r.clientErr++
	default:
		r.ok++
		r.lat.Record(us)
	}
}

// EnsureGraph uploads the target graph (generated deterministically
// from nodes and seed) under name; a re-upload of the same bytes
// deduplicates server-side, so this is idempotent.
func EnsureGraph(client *http.Client, url, name string, nodes int, seed uint64) error {
	if client == nil {
		client = http.DefaultClient
	}
	var buf bytes.Buffer
	if err := gen.BarabasiAlbert(nodes, 4, seed).WriteEdgeList(&buf); err != nil {
		return err
	}
	resp, err := client.Post(url+"/graphs?name="+name, "application/octet-stream", &buf)
	if err != nil {
		return fmt.Errorf("loadgen: uploading target graph: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("loadgen: uploading target graph: status %d: %s", resp.StatusCode, body)
	}
	return nil
}

// Run drives the configured traffic and reports. Closed loop
// (Rate == 0): Concurrency workers each keep one request in flight.
// Open loop (Rate > 0): arrivals fire on a fixed schedule and latency
// is measured from the scheduled start, so server-side queueing shows
// up in the percentiles instead of being absorbed by a slow client
// (no coordinated omission); Concurrency bounds the in-flight count.
func Run(cfg Config) (Result, error) {
	if cfg.URL == "" {
		return Result{}, fmt.Errorf("loadgen: URL is required")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Mix.total() == 0 {
		cfg.Mix = DefaultMix
	}
	if cfg.Graph == "" {
		cfg.Graph = "bench"
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2000
	}
	if len(cfg.Kernels) == 0 {
		cfg.Kernels = []string{"BFS"}
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConnsPerHost: cfg.Concurrency * 2,
				MaxIdleConns:        cfg.Concurrency * 2,
			},
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()
	workers := make([]*worker, cfg.Concurrency)
	for i := range workers {
		workers[i] = &worker{
			recs: make(map[string]*routeRec),
			rng:  rand.New(rand.NewSource(int64(cfg.Seed) + int64(i)*7919)),
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	if cfg.Rate > 0 {
		// Open loop: one scheduler, Concurrency in-flight slots.
		sem := make(chan int, cfg.Concurrency)
		for i := 0; i < cfg.Concurrency; i++ {
			sem <- i
		}
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var seq int64
	open:
		for {
			select {
			case <-ctx.Done():
				break open
			case scheduled := <-tick.C:
				wi := <-sem
				w := workers[wi]
				seq++
				op := cfg.Mix.pick(w.rng.Intn(cfg.Mix.total()))
				tenant := pickTenant(cfg.Tenants, w.rng)
				src := w.rng.Intn(cfg.Nodes)
				kern := cfg.Kernels[w.rng.Intn(len(cfg.Kernels))]
				upSeed := cfg.Seed*1_000_003 + uint64(seq)
				wg.Add(1)
				go func() {
					defer wg.Done()
					status, err := doOp(client, cfg, op, kern, tenant, src, upSeed)
					w.rec(op).record(status, err, time.Since(scheduled).Microseconds())
					sem <- wi
				}()
			}
		}
	} else {
		// Closed loop: each worker keeps exactly one request in flight.
		for i := 0; i < cfg.Concurrency; i++ {
			wg.Add(1)
			go func(w *worker, wi int) {
				defer wg.Done()
				var seq int64
				for ctx.Err() == nil {
					seq++
					op := cfg.Mix.pick(w.rng.Intn(cfg.Mix.total()))
					tenant := pickTenant(cfg.Tenants, w.rng)
					src := w.rng.Intn(cfg.Nodes)
					kern := cfg.Kernels[w.rng.Intn(len(cfg.Kernels))]
					upSeed := cfg.Seed*1_000_003 + uint64(wi)*1_000_000 + uint64(seq)
					t0 := time.Now()
					status, err := doOp(client, cfg, op, kern, tenant, src, upSeed)
					w.rec(op).record(status, err, time.Since(t0).Microseconds())
				}
			}(workers[i], i)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Merge the per-worker recorders.
	merged := make(map[string]*routeRec)
	for _, w := range workers {
		for route, r := range w.recs {
			m := merged[route]
			if m == nil {
				m = &routeRec{}
				merged[route] = m
			}
			m.count += r.count
			m.ok += r.ok
			m.shed += r.shed
			m.clientErr += r.clientErr
			m.serverErr += r.serverErr
			m.netErr += r.netErr
			m.lat.Merge(&r.lat)
		}
	}
	res := Result{DurationS: elapsed.Seconds()}
	for _, route := range []string{RouteQuery, RouteOrder, RouteUpload, RouteEdit} {
		r := merged[route]
		if r == nil {
			continue
		}
		res.Requests += r.count
		res.OK += r.ok
		res.Shed += r.shed
		res.Errors += r.serverErr + r.netErr
		res.Routes = append(res.Routes, RouteStats{
			Route:      route,
			Count:      r.count,
			OK:         r.ok,
			Shed:       r.shed,
			ClientErrs: r.clientErr,
			ServerErrs: r.serverErr,
			NetErrs:    r.netErr,
			P50Us:      r.lat.Quantile(0.50),
			P90Us:      r.lat.Quantile(0.90),
			P99Us:      r.lat.Quantile(0.99),
			P999Us:     r.lat.Quantile(0.999),
			MeanUs:     r.lat.Mean(),
			MaxUs:      r.lat.Max(),
		})
	}
	res.ThroughputRPS = float64(res.OK) / elapsed.Seconds()
	return res, nil
}

func pickTenant(tenants []string, rng *rand.Rand) string {
	if len(tenants) == 0 {
		return ""
	}
	return tenants[rng.Intn(len(tenants))]
}

// doOp executes one operation and returns the HTTP status (0 on a
// transport failure). kern is the rotated query kernel; the source
// field is sent unconditionally and canonicalized away by kernels
// that do not consume it.
func doOp(client *http.Client, cfg Config, op, kern, tenant string, src int, upSeed uint64) (int, error) {
	var (
		path string
		body []byte
	)
	switch op {
	case RouteQuery:
		path = "/query"
		body, _ = json.Marshal(map[string]any{
			"graph": cfg.Graph, "kernel": kern, "source": src,
		})
	case RouteOrder:
		path = "/jobs"
		body, _ = json.Marshal(map[string]any{
			"kind": "order", "graph": cfg.Graph, "method": "gorder",
		})
	case RouteUpload:
		var buf bytes.Buffer
		if err := gen.BarabasiAlbert(120+int(upSeed%128), 3, upSeed).WriteEdgeList(&buf); err != nil {
			return 0, err
		}
		path = fmt.Sprintf("/graphs?name=lg-%d", upSeed)
		body = buf.Bytes()
	case RouteEdit:
		path = "/graphs/" + cfg.Graph + "/edges"
		body, _ = json.Marshal(map[string]any{
			"add": []map[string]int{{"from": src, "to": (src + 1 + int(upSeed%97)) % cfg.Nodes}},
		})
	default:
		return 0, fmt.Errorf("loadgen: unknown op %q", op)
	}
	req, err := http.NewRequest(http.MethodPost, cfg.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode >= 400 && resp.StatusCode != 429 && os.Getenv("LOADGEN_DEBUG") != "" {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		fmt.Fprintf(os.Stderr, "DEBUG %s -> %d %s\n", path, resp.StatusCode, b)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}
