// Command benchmark is the repository's benchmark: it drives a live
// gorderd with four workloads and prints end-to-end metrics, or, with
// -trace 1, per-layer metrics from a traced in-process replay of the
// same op streams. It is run through run.sh, which builds gorderd and
// this command from the checkout:
//
//	bash benchmark/run.sh --workload query-cold --seed 1 --seconds 15 --trace 0
//
// Each metric prints as "workload metric value unit"; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. See README.md for what each metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the daemon sees that repeat
// within their bound; perLayer are the metrics of single layers, and the
// daemon's latency and capacity, whose run-to-run drift on a shared
// host is wider than a bound of 10% (README.md, "End-to-end metrics").
// Both lists match BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"capacity.ops_s", "1/s"},
		{"latency.p50_ms", "ms"},
		{"latency.tail_ms", "ms"},
		{"loadgen.lateness_p99_ms", "ms"},
		{"http.overhead_p50_us", "us"},
		{"query.cache_hit_ratio", "ratio"},
		{"query.kernel_runs", "count"},
		{"query.relabel_builds", "count"},
		{"query.run_us.hit", "us"},
		{"query.run_us.miss", "us"},
		{"server.order_job_p50_ms", "ms"},
		{"server.job_run_p50_ms", "ms"},
		{"server.shed", "count"},
		{"store.graph_reloads", "count"},
		{"store.resident_mb", "MB"},
		{"graph.ingest_ns_per_edge", "ns"},
		{"core.heap_ops", "count"},
		{"order.score_F", "count"},
		{"order.score_F_gain", "ratio"},
		{"trace.coverage", "ratio"},
	}
	for _, c := range medianCalls {
		defs = append(defs, metricDef{c.span + "_" + c.unit, c.unit})
	}
	for _, l := range layers {
		defs = append(defs, metricDef{"self_ms_per_op." + l, "ms"})
	}
	for _, k := range []string{"bfs", "sp", "pr", "tri"} {
		defs = append(defs,
			metricDef{"kernel." + k + "_ms.natural.w1", "ms"},
			metricDef{"kernel." + k + "_ms.gorder.w1", "ms"},
			metricDef{"kernel." + k + "_ms.gorder.w2", "ms"},
			metricDef{"kernel." + k + "_gorder_speedup.w1", "ratio"},
			metricDef{"kernel." + k + "_parallel_speedup", "ratio"})
	}
	return defs
}()

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 15, "nominal length of the measured cycles, seconds; it sets the op counts")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, with a traced in-process replay")
	runs := flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...; prints each metric's median and quartiles")
	gorderd := flag.String("gorderd", filepath.Join(".bench_build", "bin", "gorderd"), "gorderd binary to drive")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "directory for daemon data, the replay store and spans")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	var todo []spec
	if *workload == "all" {
		todo = specs
	} else if s, ok := lookupSpec(*workload); ok {
		todo = []spec{s}
	} else {
		fatalf("unknown workload %q (known: %s, all)", *workload, strings.Join(names, ", "))
	}
	if *runs < 1 || *seconds <= 0 {
		fatalf("-runs must be >= 1 and -seconds > 0")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatalf("%v", err)
	}
	e := env{gorderd: *gorderd, work: *work, conns: runtime.NumCPU()}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}

	final := report{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, s := range todo {
		values := map[string][]float64{}
		for i := 0; i < *runs; i++ {
			r := run{env: e, s: s, sz: fullSizes, seed: *seed + uint64(i), seconds: *seconds, traced: *trace == 1,
				spans: filepath.Join(*work, fmt.Sprintf("spans-%s-%d.json", s.name, *seed+uint64(i)))}
			out, err := r.do()
			if err != nil {
				fatalf("%s seed %d: %v", s.name, r.seed, err)
			}
			if out.invalid != "" {
				fmt.Fprintf(os.Stderr, "%s seed %d: run invalid: %s\n", s.name, r.seed, out.invalid)
			}
			fmt.Printf("%s checked %d answers, %d wrong; %d of %d ops failed\n",
				s.name, out.checked, out.wrong, out.failed, out.attempted)
			final.Correct = final.Correct && out.wrong == 0
			final.Attempted += out.attempted
			final.Failed += out.failed
			for _, d := range defs {
				v, ok := out.metrics[d.name]
				if !ok {
					fatalf("%s: metric %s was not measured", s.name, d.name)
				}
				values[d.name] = append(values[d.name], v)
				if *runs == 1 {
					fmt.Printf("%s %s %.6g %s\n", s.name, d.name, v, d.unit)
				}
			}
		}
		for _, d := range defs {
			q1, q2, q3 := quartiles(values[d.name])
			if *runs > 1 {
				fmt.Printf("%s %s median %.6g q1 %.6g q3 %.6g %s\n", s.name, d.name, q2, q1, q3, d.unit)
			}
			key := d.name
			if len(todo) > 1 {
				key = s.name + "." + d.name
			}
			final.Metrics[key] = jsonMetric{Value: q2, Unit: d.unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
