// Command bench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index):
//
//	bench -exp all                  # everything (slow)
//	bench -exp table2,fig5,fig6     # a subset
//	bench -exp fig1 -scale 0.5 -v   # smaller datasets, with progress
//	bench -list                     # list datasets and experiments
//
// Output is aligned text on stdout; -md also writes a markdown file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"gorder/internal/bench"
)

var experimentIDs = []string{
	"table1", "table2", "table3", "fig1", "fig3", "fig4", "fig5", "fig6", "figs1",
	"compress", "dial", "tlb", "cachegrid", "parallel", "evolving", // extension experiments (see DESIGN.md)
}

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scale    = flag.Float64("scale", 1.0, "dataset size multiplier")
		reps     = flag.Int("reps", 3, "timed repetitions per cell (median reported)")
		seed     = flag.Uint64("seed", 42, "seed for stochastic orderings/kernels")
		max      = flag.Int("datasets", 0, "limit to the first N datasets (0 = all)")
		verbose  = flag.Bool("v", false, "print progress to stderr")
		mdPath   = flag.String("md", "", "also write results as markdown to this file")
		chart    = flag.Bool("chart", false, "render each table's last column as a bar chart")
		jsonPath = flag.String("json", "", "also dump the raw runtime matrix as JSON to this file (matrix experiments only)")
		list     = flag.Bool("list", false, "list experiments and datasets, then exit")
		prIters  = flag.Int("pr-iters", 100, "PageRank iterations (paper: 100)")
		diamSamp = flag.Int("diam-samples", 50, "Diameter SP samples (paper: 5000)")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments:", strings.Join(experimentIDs, " "))
		fmt.Println("datasets:")
		for _, d := range bench.Datasets() {
			g := d.Build(*scale)
			fmt.Printf("  %-14s %-7s stands for %-12s n=%d m=%d\n",
				d.Name, d.Category, d.Counterpart, g.NumNodes(), g.NumEdges())
		}
		return
	}

	r := bench.NewRunner()
	r.Scale = *scale
	r.Reps = *reps
	r.Seed = *seed
	r.MaxDatasets = *max
	r.Params.PageRankIters = *prIters
	r.Params.DiameterSamples = *diamSamp
	if *verbose {
		r.Progress = os.Stderr
	}

	want := map[string]bool{}
	if *exp == "all" {
		for _, id := range experimentIDs {
			want[id] = true
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			ok := false
			for _, known := range experimentIDs {
				if id == known {
					ok = true
				}
			}
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: unknown experiment %q (known: %s)\n",
					id, strings.Join(experimentIDs, " "))
				os.Exit(2)
			}
			want[id] = true
		}
	}

	var tables []bench.Table
	add := func(ts ...bench.Table) { tables = append(tables, ts...) }
	// Cheap experiments first; the matrix-backed ones share one run.
	if want["table1"] {
		add(r.Table1())
	}
	if want["fig3"] {
		add(r.Fig3Table())
	}
	if want["fig4"] {
		add(r.Fig4Table())
	}
	if want["table2"] {
		add(r.Table2())
	}
	if want["fig5"] {
		add(r.Fig5Tables()...)
	}
	if want["fig6"] {
		add(r.Fig6Table())
	}
	if want["figs1"] {
		add(r.FigS1Tables()...)
	}
	if want["table3"] {
		add(r.Table3Tables()...)
	}
	if want["compress"] {
		add(r.CompressTable())
	}
	if want["dial"] {
		add(r.DialTable())
	}
	if want["tlb"] {
		add(r.TLBTable()...)
	}
	if want["cachegrid"] {
		add(r.CacheGridTable())
	}
	if want["parallel"] {
		add(r.ParallelOrder())
	}
	if want["evolving"] {
		add(r.Evolving())
	}
	if want["fig1"] {
		add(r.Fig1Table())
	}

	for i := range tables {
		if err := tables[i].Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if *chart && len(tables[i].Header) > 1 {
			col := len(tables[i].Header) - 1
			if err := bench.ChartColumn(os.Stdout, tables[i], col, 40); err == nil {
				fmt.Println()
			}
		}
		fmt.Println()
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(r.RunMatrix(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if *mdPath != "" {
		var b strings.Builder
		for i := range tables {
			b.WriteString(tables[i].Markdown())
			b.WriteString("\n")
		}
		if err := os.WriteFile(*mdPath, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}
