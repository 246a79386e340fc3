// Command cachesim runs a benchmark kernel on a graph with every data
// access routed through the simulated cache hierarchy and prints the
// paper's cache statistics, optionally comparing a second ordering,
// profiling reuse distances, and recording/replaying access traces:
//
//	cachesim -i wiki.graph -kernel PR -machine small
//	cachesim -i wiki.graph -kernel PR -compare gorder -reuse
//	cachesim -i wiki.graph -kernel BFS -trace-out bfs.trc
//	cachesim -replay bfs.trc -machine replication
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"gorder"
	"gorder/internal/cache"
	"gorder/internal/graph"
	"gorder/internal/registry"
	"gorder/internal/trace"
)

func main() {
	var (
		in       = flag.String("i", "", "input graph (binary or text; - for stdin)")
		kernel   = flag.String("kernel", gorder.KernelPR, "kernel: "+strings.Join(gorder.KernelNames(), "|"))
		machine  = flag.String("machine", "small", "hierarchy: small|replication")
		compare  = flag.String("compare", "", "also run after this ordering: "+strings.Join(registry.MethodNames(), "|"))
		seed     = flag.Uint64("seed", 1, "seed for stochastic orderings")
		doReuse  = flag.Bool("reuse", false, "also print the reuse-distance profile")
		traceOut = flag.String("trace-out", "", "record the access trace to this file")
		replay   = flag.String("replay", "", "replay a recorded trace instead of running a kernel")
	)
	flag.Parse()

	cfg := gorder.SmallCache()
	if *machine == "replication" {
		cfg = gorder.ReplicationCache()
	}

	if *replay != "" {
		replayTrace(*replay, cfg)
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "cachesim: -i (or -replay) is required")
		os.Exit(2)
	}
	g, err := readGraph(*in)
	if err != nil {
		fail(err)
	}
	runOne("original", g, *kernel, cfg, *doReuse, *traceOut)
	if *compare != "" {
		perm, err := registry.Compute(context.Background(), g, *compare, registry.Options{Seed: *seed})
		if err != nil {
			fail(err)
		}
		out := ""
		if *traceOut != "" {
			out = *traceOut + "." + *compare
		}
		runOne(*compare, gorder.Apply(g, perm), *kernel, cfg, *doReuse, out)
	}
}

func runOne(label string, g *gorder.Graph, kernel string, cfg gorder.CacheConfig, doReuse bool, traceOut string) {
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w, err := trace.NewWriter(f)
		if err != nil {
			fail(err)
		}
		rep, err := gorder.SimulateCacheObserved(g, kernel, cfg, w.Touch)
		if err != nil {
			fail(err)
		}
		if err := w.Flush(); err != nil {
			fail(err)
		}
		fmt.Printf("%-10s %s\n", label, fmtReport(rep))
		fmt.Printf("%-10s trace: %d accesses -> %s\n", label, w.Len(), traceOut)
	} else {
		rep, err := gorder.SimulateCache(g, kernel, cfg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-10s %s\n", label, fmtReport(rep))
	}
	if doReuse {
		printReuse(label, g, kernel, cfg)
	}
}

func replayTrace(path string, cfg gorder.CacheConfig) {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	h := cache.New(cfg)
	lineSize := uint64(cfg.Levels[0].LineSize)
	n, err := trace.Replay(f, func(line uint64) { h.Access(line * lineSize) })
	if err != nil {
		fail(err)
	}
	fmt.Printf("replayed %d accesses from %s\n", n, path)
	fmt.Printf("%-10s %s\n", "trace", fmtReport(h.Report()))
}

// printReuse prints the reuse-distance profile with exact miss
// modelling at each configured level's capacity in lines.
func printReuse(label string, g *gorder.Graph, kernel string, cfg gorder.CacheConfig) {
	caps := make([]int64, 0, len(cfg.Levels))
	for _, l := range cfg.Levels {
		caps = append(caps, l.Size/l.LineSize)
	}
	p, err := gorder.ProfileReuse(g, kernel, caps...)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%-10s reuse: mean-dist=%.0f cold=%d", label, p.MeanDistance(), p.Cold)
	for i, c := range p.Capacities {
		fmt.Printf(" mr@%d=%.2f%%", c, 100*p.MissRatio(i))
	}
	fmt.Println()
}

func fmtReport(r gorder.CacheReport) string {
	return fmt.Sprintf("refs=%d L1-mr=%.2f%% L3-ref=%d L3-r=%.2f%% cache-mr=%.2f%% cycles=%d",
		r.Accesses, 100*r.L1MissRate(), r.LLCRefs(), 100*r.LLCRatio(), 100*r.MissRate(), r.Cycles)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cachesim:", err)
	os.Exit(1)
}

// readGraph loads the input graph in either format; "-" reads stdin.
func readGraph(path string) (*graph.Graph, error) {
	if path == "-" {
		return graph.Read(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(f)
}
