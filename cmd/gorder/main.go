// Command gorder computes a vertex ordering of a graph and writes the
// relabeled graph and/or the permutation.
//
//	gorder -i wiki.graph -method gorder -w 5 -o wiki-gorder.graph
//	gorder -i wiki.graph -method rcm -perm-out wiki.rcm.perm -eval
//	gorder -i wiki.graph -apply wiki.rcm.perm -o wiki-rcm.graph
//
// When the graph has grown since an ordering was computed, -base
// extends the saved permutation incrementally instead of recomputing:
// old vertices keep their positions and new vertices are placed
// greedily after them. -dirty-from N additionally re-places every
// vertex with id >= N jointly with the new ones (a suffix repair).
//
//	gorder -i wiki-v2.graph -base wiki.perm -perm-out wiki-v2.perm -eval
//
// Run with -list for the full catalog of methods and their
// capabilities, or -h for flag help.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"gorder"
	"gorder/internal/graph"
	"gorder/internal/registry"
	"gorder/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gorder:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in         = flag.String("i", "", "input graph (binary or text; - for stdin)")
		method     = flag.String("method", "gorder", "ordering method: "+strings.Join(registry.MethodNames(), "|"))
		w          = flag.Int("w", gorder.DefaultWindow, "gorder window size")
		hub        = flag.Int("hub", 0, "gorder hub-skip threshold (0 = exact)")
		seed       = flag.Uint64("seed", 1, "seed for stochastic methods")
		ldgBins    = flag.Int("ldg-bins", 0, "LDG bin count (0 = default 64)")
		workers    = flag.Int("workers", 0, "worker bound for parallel methods (0 = GOMAXPROCS)")
		partitions = flag.Int("partitions", 0, "gorder-partitioned partition count (0 = default)")
		out        = flag.String("o", "", "write relabeled graph here (binary)")
		permOut    = flag.String("perm-out", "", "write the permutation here (one new id per line)")
		permIn     = flag.String("apply", "", "apply a saved permutation file instead of computing one")
		baseIn     = flag.String("base", "", "extend a saved gorder permutation incrementally to the (grown) input graph")
		dirtyFrom  = flag.Int("dirty-from", -1, "with -base: also re-place vertices with id >= N (-1 = only new vertices)")
		eval       = flag.Bool("eval", false, "print ordering quality metrics")
		list       = flag.Bool("list", false, "list the ordering catalog and exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile here (pprof format)")
		memProfile = flag.String("memprofile", "", "write a heap profile here at exit (pprof format)")
	)
	flag.Parse()
	if *list {
		listMethods()
		return nil
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "gorder: -i is required")
		flag.Usage()
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gorder:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "gorder: memprofile:", err)
			}
		}()
	}
	g, err := readGraph(*in)
	if err != nil {
		return err
	}
	var perm gorder.Permutation
	if *baseIn != "" {
		if *permIn != "" {
			return fmt.Errorf("-base and -apply are mutually exclusive")
		}
		f, err := os.Open(*baseIn)
		if err != nil {
			return err
		}
		base, err := gorder.ReadPermutation(f)
		f.Close()
		if err != nil {
			return err
		}
		var dirty []gorder.NodeID
		if *dirtyFrom >= 0 {
			for v := *dirtyFrom; v < len(base); v++ {
				dirty = append(dirty, gorder.NodeID(v))
			}
		}
		start := time.Now()
		perm, err = gorder.OrderIncrementalCtx(context.Background(), g, base,
			dirty, gorder.Options{Window: *w, HubThreshold: *hub})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "extended base ordering of %d vertices to %d (re-placed %d) in %s\n",
			len(base), g.NumNodes(), g.NumNodes()-len(base)+len(dirty), time.Since(start))
	} else if *permIn != "" {
		f, err := os.Open(*permIn)
		if err != nil {
			return err
		}
		perm, err = gorder.ReadPermutation(f)
		f.Close()
		if err != nil {
			return err
		}
		if len(perm) != g.NumNodes() {
			return fmt.Errorf("permutation covers %d vertices, graph has %d", len(perm), g.NumNodes())
		}
	} else {
		start := time.Now()
		var err error
		perm, err = registry.Compute(context.Background(), g, *method, registry.Options{
			Window: *w, HubThreshold: *hub, Seed: *seed, LDGBins: *ldgBins,
			Workers: *workers, Partitions: *partitions,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "computed %s ordering of %d vertices in %s\n",
			*method, g.NumNodes(), time.Since(start))
	}

	if *eval {
		fmt.Printf("score_F(w=%d)  %d\n", *w, gorder.Score(g, perm, *w))
		fmt.Printf("bandwidth     %d\n", gorder.Bandwidth(g, perm))
		fmt.Printf("linear_cost   %.0f\n", gorder.LinearCost(g, perm))
		fmt.Printf("log_cost      %.0f\n", gorder.LogCost(g, perm))
		fmt.Printf("packing       %.3f\n", gorder.PackingFactor(g, perm))
	}
	// Outputs land atomically (temp file + rename): an interrupted run
	// never leaves a half-written permutation or graph under the target
	// name.
	if *permOut != "" {
		err := store.WriteFileAtomic(*permOut, 0o644, func(w io.Writer) error {
			_, err := perm.WriteTo(w)
			return err
		})
		if err != nil {
			return err
		}
	}
	if *out != "" {
		relabeled := gorder.Apply(g, perm)
		err := store.WriteFileAtomic(*out, 0o644, func(w io.Writer) error {
			return relabeled.WriteBinary(w)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// listMethods prints the registry's ordering catalog with capability
// metadata, one method per line.
func listMethods() {
	fmt.Printf("%-16s %-10s %-12s %-9s %s\n", "METHOD", "COST", "CANCELLABLE", "SEEDED", "ALIASES")
	for _, o := range registry.Orderings() {
		cancellable, seeded := "-", "-"
		if o.Cancellable {
			cancellable = "yes"
		}
		if o.Stochastic {
			seeded = "yes"
		}
		fmt.Printf("%-16s %-10s %-12s %-9s %s\n", strings.ToLower(o.Name),
			string(o.Cost), cancellable, seeded, strings.Join(o.Aliases, ","))
	}
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
