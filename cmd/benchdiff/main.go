// Command benchdiff records and gates the benchmark row files. It
// parses `go test -bench -benchmem` output (stdin or a file argument)
// and either writes it as a BENCH_<suite>.json row file or diffs it
// against a committed one, exiting nonzero when any benchmark blows
// past the bounds:
//
//	go test ./internal/core/ -run '^$' -bench . -benchmem | \
//	    benchdiff -baseline BENCH_gorder.json
//	go test ./internal/core/ -run '^$' -bench . -benchmem | \
//	    benchdiff -write BENCH_gorder.json
//
// The time gate is loose by design (baselines are recorded on a
// different machine than CI); the allocs gate is tight because alloc
// counts are machine-independent. See internal/benchdiff.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gorder/internal/benchdiff"
)

func main() {
	var (
		baseline = flag.String("baseline", "", "BENCH_*.json baseline to diff against")
		write    = flag.String("write", "", "record the parsed rows as this BENCH_<suite>.json instead of diffing")
		minMatch = flag.Int("min-match", 1, "fail unless at least this many benchmarks matched the baseline")
	)
	flag.Parse()
	if (*baseline == "") == (*write == "") {
		fmt.Fprintln(os.Stderr, "benchdiff: exactly one of -baseline and -write is required")
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	rows, err := benchdiff.Parse(in)
	if err != nil {
		fatal(err)
	}

	if *write != "" {
		if len(rows) == 0 {
			fatal(fmt.Errorf("no benchmark results to record in %s", *write))
		}
		if err := benchdiff.NewFile(benchdiff.SuiteOf(*write), rows).Write(*write); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: wrote %d rows to %s\n", len(rows), *write)
		return
	}

	base, err := benchdiff.Load(*baseline)
	if err != nil {
		fatal(err)
	}
	findings, matched := benchdiff.Compare(rows, base.Rows)
	regressed := benchdiff.Report(os.Stdout, findings)
	fmt.Printf("benchdiff: %d rows parsed, %d benchmarks matched %s, %d regressed\n",
		len(rows), matched, *baseline, regressed)
	if matched < *minMatch {
		fmt.Fprintf(os.Stderr, "benchdiff: only %d benchmark(s) matched the baseline (want >= %d) — name drift?\n",
			matched, *minMatch)
		os.Exit(1)
	}
	if regressed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
