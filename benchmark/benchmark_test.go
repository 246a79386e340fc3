package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"gorder/internal/gen"
)

func TestOpStreamDeterministicPerSeed(t *testing.T) {
	g := gen.Web(2000, gen.DefaultWeb, 7)
	for _, s := range specs {
		if s.pipeline {
			if !pipeGraph(fullSizes, 3, 2).Equal(pipeGraph(fullSizes, 3, 2)) {
				t.Errorf("%s: the same seed gave different graphs", s.name)
			}
			if pipeGraph(fullSizes, 3, 0).Equal(pipeGraph(fullSizes, 4, 0)) {
				t.Errorf("%s: seeds 3 and 4 gave the same graph", s.name)
			}
			continue
		}
		draw := func(seed uint64) [][]op {
			o := newOpGen(s, g, seed)
			return [][]op{o.ops(100), o.ops(300)}
		}
		if a, b := draw(5), draw(5); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 5 gave two different op streams", s.name)
		}
		if a, b := draw(5), draw(6); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 5 and 6 gave the same op stream", s.name)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 50}, {19, 50}, {20, 50}, {56, 82.1}, {100, 90}, {999, 98.9}, {1000, 99}, {1200, 99.1}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// At every n, at least ten samples lie beyond the tail percentile.
	for n := 20; n <= 5000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		p := percentile(xs, tailPercentile(n))
		if beyond := n - 1 - int(p); beyond < 10 {
			t.Fatalf("n=%d: p%v = %v has %d samples beyond it", n, tailPercentile(n), p, beyond)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4}, [3]float64{1.8125, 3.75, 7.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op.query", Start: 0, End: 100},
		{ID: 2, Name: "query.run", Parent: 1, Start: 10, End: 40},
		{ID: 3, Name: "store.get_graph", Parent: 1, Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Name: "graph.relabel", Parent: 1, Start: 90, End: 120},  // runs past its parent
		{ID: 5, Name: "kernel.query", Parent: 2, Start: 100, End: 105, Beside: true},
	}
	got := selfTimes(spans)
	// Root: 100 minus the union [10,60] and the clipped [90,100].
	// query.run: 30 minus its beside child's 5.
	want := []int64{40, 25, 30, 30, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestCounterDeltasFromMetricsEndpoint(t *testing.T) {
	bodies := []string{
		"{\n  \"query_cache_hits_total\": 10,\n  \"query_cache_misses_total\": 4,\n  \"uptime_seconds\": 1\n}\n",
		"{\n  \"query_cache_hits_total\": 25,\n  \"query_cache_misses_total\": 9,\n  \"uptime_seconds\": 3\n}\n",
	}
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(bodies[calls]))
		calls++
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1)
	m0, err := c.counters()
	if err != nil {
		t.Fatal(err)
	}
	m1, err := c.counters()
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(m0, m1, "query_cache_hits_total"); d != 15 {
		t.Errorf("hits delta = %v, want 15", d)
	}
	if d := delta(m0, m1, "query_cache_misses_total"); d != 5 {
		t.Errorf("misses delta = %v, want 5", d)
	}
	if d := delta(m0, m1, "absent_total"); d != 0 {
		t.Errorf("delta of an absent counter = %v, want 0", d)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, s := range specs {
		want = append(want, s.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	for _, c := range []struct {
		list string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range c.json {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.defs) {
			t.Errorf("BENCHMARK.json %s = %v, benchmark reports %v", c.list, got, c.defs)
		}
	}
}

// TestSmokeEveryWorkload runs every workload at toy size against a
// real daemon, untraced and traced.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives gorderd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "gorderd")
	if out, err := exec.Command("go", "build", "-o", bin, "gorder/cmd/gorderd").CombinedOutput(); err != nil {
		t.Fatalf("building gorderd: %v\n%s", err, out)
	}
	toy := sizes{nodes: 3000, pipeNodes: 400, pipeScale: 8, verify: 20}
	for _, s := range specs {
		s.warmOps, s.replayOps, s.setups = s.warmOps/50, s.replayOps/10, 2
		s.segOps, s.capOps = max(2, s.segOps/5), max(2, s.capOps/5)
		if s.editEvery > 0 {
			s.editEvery = s.segOps
		}
		for _, traced := range []bool{false, true} {
			r := run{env: env{gorderd: bin, work: dir, conns: 2}, s: s, sz: toy, seed: 1, seconds: 2 * s.cycleS,
				traced: traced, spans: filepath.Join(dir, "spans.json")}
			out, err := r.do()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if out.wrong != 0 || out.failed != 0 || out.checked == 0 {
				t.Errorf("%s traced=%v: %d checked, %d wrong, %d of %d failed",
					s.name, traced, out.checked, out.wrong, out.failed, out.attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				if v, ok := out.metrics[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s = %v (present %v)", s.name, traced, d.name, v, ok)
				}
			}
		}
	}
}
