// Package benchdiff records and compares the committed BENCH_*.json
// row files, so CI can catch performance regressions the functional
// tests cannot see.
//
// Every suite file has one shape: {suite, commit, cores, go, rows},
// where each row is one (name, metric, unit, value) measurement.
// Parse turns `go test -bench -benchmem` output into rows; the serve
// suite's rows come from the load generator.
//
// Three gates, with very different trust levels:
//
//   - ns/op is machine-dependent (the baselines were recorded on one
//     host, CI runs on another), so the time gate is deliberately
//     loose — it exists to catch pathological regressions (an
//     accidentally quadratic loop, a lost cache), not percent drift.
//   - allocs/op is machine-independent: the same binary performs the
//     same allocations everywhere, so the alloc gate is tight. A small
//     absolute slack absorbs runtime-version noise on tiny counts.
//   - F/exact (a partitioned ordering's score over exact Gorder's) is
//     an exact count: the permutation is deterministic and
//     worker-independent, so any drop below the baseline fails.
package benchdiff

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// The regression bounds.
const (
	// TimeFactor fails a benchmark whose ns/op exceeds baseline × this.
	TimeFactor = 8
	// AllocFactor and AllocSlack fail a benchmark whose allocs/op
	// exceed baseline × AllocFactor + AllocSlack, so a 15 → 17 move on
	// a tiny count is noise but a 15 → 40 move is a regression.
	AllocFactor = 1.3
	AllocSlack  = 4
)

// Row is one measurement: the benchmark or route it belongs to, what
// was measured, its unit, and the value.
type Row struct {
	Name   string  `json:"name"`
	Metric string  `json:"metric"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
}

// File is one suite's BENCH_<suite>.json.
type File struct {
	Suite  string `json:"suite"`
	Commit string `json:"commit"`
	Cores  int    `json:"cores"`
	Go     string `json:"go"`
	Rows   []Row  `json:"rows"`
}

// NewFile stamps rows with the host and the commit the running binary
// was built from (its VCS build info; "unknown" under go run).
func NewFile(suite string, rows []Row) File {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return File{Suite: suite, Commit: commit, Cores: runtime.NumCPU(), Go: runtime.Version(), Rows: rows}
}

// SuiteOf names the suite a BENCH_<suite>.json path records.
func SuiteOf(path string) string {
	return strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
}

// Encode writes f to w as indented JSON.
func (f File) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Write stores f as indented JSON at path.
func (f File) Write(path string) error {
	var b bytes.Buffer
	if err := f.Encode(&b); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// Load reads a BENCH_*.json row file.
func Load(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Rows) == 0 {
		return File{}, fmt.Errorf("%s: no \"rows\" array", path)
	}
	return f, nil
}

// gomaxprocsSuffix matches the "-8" style suffix go test appends to
// benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// Parse reads `go test -bench` output and returns one row per (value,
// unit) pair of every result line — ns/op, B/op, allocs/op and any
// b.ReportMetric unit — ignoring all other lines (ok/PASS/log noise).
// The -GOMAXPROCS suffix is stripped from names, so rows match
// baselines recorded at any -cpu. A metric's unit is its per-op
// quantity: "ns/op" is measured in "ns".
func Parse(r io.Reader) ([]Row, error) {
	var out []Row
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // "Benchmark..." prose, not a result line
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			metric := fields[i+1]
			out = append(out, Row{Name: name, Metric: metric, Unit: strings.TrimSuffix(metric, "/op"), Value: v})
		}
	}
	return out, sc.Err()
}

// Finding is one benchmark's comparison against its baseline.
type Finding struct {
	Name        string
	Regressed   bool
	Reasons     []string // empty when within bounds
	NsPerOp     float64
	BaseNs      float64
	AllocsPerOp float64
	BaseAllocs  float64
}

// metrics indexes rows by benchmark name, then metric, keeping the
// names in first-seen order.
func metrics(rows []Row) (names []string, idx map[string]map[string]float64) {
	idx = map[string]map[string]float64{}
	for _, r := range rows {
		m, ok := idx[r.Name]
		if !ok {
			m = map[string]float64{}
			idx[r.Name] = m
			names = append(names, r.Name)
		}
		m[r.Metric] = r.Value
	}
	return names, idx
}

// Compare diffs measured rows against baseline rows, benchmark by
// benchmark. Benchmarks without baseline rows are skipped (they are
// new); matched is how many were compared.
func Compare(cur, base []Row) (findings []Finding, matched int) {
	names, got := metrics(cur)
	_, want := metrics(base)
	for _, name := range names {
		b, ok := want[name]
		if !ok {
			continue
		}
		matched++
		m := got[name]
		f := Finding{
			Name: name, NsPerOp: m["ns/op"], BaseNs: b["ns/op"],
			AllocsPerOp: m["allocs/op"], BaseAllocs: b["allocs/op"],
		}
		if f.BaseNs > 0 && f.NsPerOp > f.BaseNs*TimeFactor {
			f.Reasons = append(f.Reasons, fmt.Sprintf(
				"time %.0f ns/op > %d× baseline %.0f", f.NsPerOp, TimeFactor, f.BaseNs))
		}
		if _, has := m["allocs/op"]; has && f.BaseAllocs > 0 &&
			f.AllocsPerOp > f.BaseAllocs*AllocFactor+AllocSlack {
			f.Reasons = append(f.Reasons, fmt.Sprintf(
				"allocs %.0f/op > %.2f× baseline %.0f + %d", f.AllocsPerOp,
				AllocFactor, f.BaseAllocs, AllocSlack))
		}
		if q, has := m["F/exact"]; has {
			if bq, bhas := b["F/exact"]; bhas && q < bq {
				f.Reasons = append(f.Reasons, fmt.Sprintf("F/exact %g < baseline %g", q, bq))
			}
		}
		f.Regressed = len(f.Reasons) > 0
		findings = append(findings, f)
	}
	return findings, matched
}

// Report writes a human-readable comparison table and returns how many
// findings regressed.
func Report(w io.Writer, findings []Finding) int {
	regressed := 0
	for _, f := range findings {
		status := "ok"
		if f.Regressed {
			status = "REGRESSED"
			regressed++
		}
		fmt.Fprintf(w, "%-60s %12.0f ns/op (base %12.0f)  %6.0f allocs (base %6.0f)  %s\n",
			f.Name, f.NsPerOp, f.BaseNs, f.AllocsPerOp, f.BaseAllocs, status)
		for _, r := range f.Reasons {
			fmt.Fprintf(w, "    ^ %s\n", r)
		}
	}
	return regressed
}
