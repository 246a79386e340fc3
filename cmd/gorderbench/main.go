// Command gorderbench drives mixed upload/order/query/edit traffic at
// a running gorderd and reports per-route latency percentiles (p50 /
// p90 / p99 / p99.9), throughput, and an error taxonomy where 429s
// count as load shedding, not failures.
//
//	gorderd -addr 127.0.0.1:8080 &
//	gorderbench -url http://127.0.0.1:8080 -duration 10s -concurrency 4,16
//
// Closed loop by default (each worker keeps one request in flight);
// -rate switches to open loop with latency measured from the arrival
// schedule, so server queueing is charged to the percentiles.
// The report is BENCH_serve.json's row file: one row per run total and
// per route metric (e.g. mixed-c16/query · p99_us).
//
// -assert-zero-errors and -assert-p99-ms turn the run into a gate for
// CI smokes: exit 1 when the SLO is missed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gorder/internal/benchdiff"
	"gorder/internal/loadgen"
)

func main() {
	var (
		url        = flag.String("url", "", "gorderd base URL (e.g. http://127.0.0.1:8080)")
		duration   = flag.Duration("duration", 5*time.Second, "wall time per concurrency level")
		concs      = flag.String("concurrency", "4,16", "comma-separated closed-loop concurrency levels")
		rate       = flag.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
		mixFlag    = flag.String("mix", "", "operation mix as query=12,order=2,upload=1,edit=1, or a preset: default, query-heavy")
		kernels    = flag.String("kernels", "", "comma-separated kernels rotated across query ops (default BFS; query-heavy preset defaults to BFS,PR,SP,Tri)")
		tenants    = flag.String("tenants", "", "comma-separated X-Tenant values rotated across requests")
		graphName  = flag.String("graph", "bench", "name of the target graph (uploaded if absent)")
		nodes      = flag.Int("nodes", 2000, "node count of the generated target graph")
		seed       = flag.Uint64("seed", 1, "RNG seed for the mix, sources, and generated graphs")
		jsonOut    = flag.String("json", "", "write the serve rows as JSON to this file ('' = stdout)")
		benchName  = flag.String("name", "mixed", "benchmark name prefix in the report")
		zeroErrors = flag.Bool("assert-zero-errors", false, "exit 1 if any run saw a server or network error")
		p99Bound   = flag.Float64("assert-p99-ms", 0, "exit 1 if any run's query p99 exceeds this many ms (0 = no bound)")
	)
	flag.Parse()

	if *url == "" {
		fmt.Fprintln(os.Stderr, "gorderbench: -url is required")
		os.Exit(2)
	}
	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		fatal(err)
	}
	// The query-heavy preset is about exercising the kernel tier, so it
	// rotates over every parallel kernel unless -kernels overrides.
	if *kernels == "" && *mixFlag == "query-heavy" {
		*kernels = "BFS,PR,SP,Tri"
	}
	var kernelList []string
	if *kernels != "" {
		kernelList = strings.Split(*kernels, ",")
	}
	var tenantList []string
	if *tenants != "" {
		tenantList = strings.Split(*tenants, ",")
	}

	var rows []benchdiff.Row
	failed := false

	if err := loadgen.EnsureGraph(nil, *url, *graphName, *nodes, *seed); err != nil {
		fatal(err)
	}
	for _, c := range parseLevels(*concs) {
		res, err := loadgen.Run(loadgen.Config{
			URL:         *url,
			Duration:    *duration,
			Concurrency: c,
			Rate:        *rate,
			Mix:         mix,
			Tenants:     tenantList,
			Graph:       *graphName,
			Nodes:       *nodes,
			Kernels:     kernelList,
			Seed:        *seed,
		})
		if err != nil {
			fatal(err)
		}
		res.Name = fmt.Sprintf("%s-c%d", *benchName, c)
		if *rate > 0 {
			res.Name = fmt.Sprintf("%s-open-r%g-c%d", *benchName, *rate, c)
		}
		rows = append(rows, res.Rows()...)
		fmt.Fprintf(os.Stderr, "%s: %d requests, %.0f ok/s, %d shed, %d errors\n",
			res.Name, res.Requests, res.ThroughputRPS, res.Shed, res.Errors)
		if *zeroErrors && res.Errors > 0 {
			fmt.Fprintf(os.Stderr, "gorderbench: %s saw %d errors with -assert-zero-errors\n", res.Name, res.Errors)
			failed = true
		}
		if *p99Bound > 0 {
			for _, rt := range res.Routes {
				if rt.Route == loadgen.RouteQuery && float64(rt.P99Us)/1000 > *p99Bound {
					fmt.Fprintf(os.Stderr, "gorderbench: %s query p99 %.1fms exceeds the %.1fms bound\n",
						res.Name, float64(rt.P99Us)/1000, *p99Bound)
					failed = true
				}
			}
		}
	}

	rep := benchdiff.NewFile("serve", rows)
	if *jsonOut == "" {
		err = rep.Encode(os.Stdout)
	} else {
		err = rep.Write(*jsonOut)
	}
	if err != nil {
		fatal(err)
	}
	if failed {
		os.Exit(1)
	}
}

// parseLevels parses the -concurrency list, tolerating blanks.
func parseLevels(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			fatal(fmt.Errorf("bad -concurrency level %q", part))
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		out = []int{4}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gorderbench:", err)
	os.Exit(1)
}
