package benchdiff

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: gorder/internal/core
cpu: some CPU
BenchmarkOrderWith/web120k/w=1/hub=0-8         	       1	73771375 ns/op	    121574 edges	    162661 placements/s	  472752 B/op	      15 allocs/op
BenchmarkOrderWith/web120k/w=5/hub=0-8         	       2	91384687 ns/op	  472800 B/op	      16 allocs/op
BenchmarkNoMemColumns                          	     100	    123456 ns/op
--- BENCH: something
    helper_test.go:10: log line that mentions Benchmark inside
PASS
ok  	gorder/internal/core	2.345s
`

func TestParse(t *testing.T) {
	rows, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("parsed %d rows, want 9 (5 + 3 + 1): %+v", len(rows), rows)
	}
	want := []Row{
		{"BenchmarkOrderWith/web120k/w=1/hub=0", "ns/op", "ns", 73771375},
		{"BenchmarkOrderWith/web120k/w=1/hub=0", "edges", "edges", 121574},
		{"BenchmarkOrderWith/web120k/w=1/hub=0", "placements/s", "placements/s", 162661},
		{"BenchmarkOrderWith/web120k/w=1/hub=0", "B/op", "B", 472752},
		{"BenchmarkOrderWith/web120k/w=1/hub=0", "allocs/op", "allocs", 15},
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], w)
		}
	}
	if last := rows[len(rows)-1]; last.Name != "BenchmarkNoMemColumns" || last.Metric != "ns/op" {
		t.Errorf("last row %+v, want the no-mem line's ns/op", last)
	}
}

func TestLoadBaselineAndCompare(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	base := NewFile(SuiteOf(path), []Row{
		{"BenchmarkOrderWith/web120k/w=1/hub=0", "ns/op", "ns", 70000000},
		{"BenchmarkOrderWith/web120k/w=1/hub=0", "allocs/op", "allocs", 15},
		{"BenchmarkOrderWith/web120k/w=5/hub=0", "ns/op", "ns", 1000},
		{"BenchmarkOrderWith/web120k/w=5/hub=0", "allocs/op", "allocs", 3},
	})
	if err := base.Write(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Suite != "test" || loaded.Go == "" || loaded.Cores < 1 || loaded.Commit == "" || len(loaded.Rows) != 4 {
		t.Fatalf("loaded %+v", loaded)
	}

	rows, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	findings, matched := Compare(rows, loaded.Rows)
	if matched != 2 {
		t.Fatalf("matched %d, want 2 (the no-baseline bench is skipped)", matched)
	}
	// First bench: 73.77ms vs 70ms baseline, 15 vs 15 allocs — fine.
	if findings[0].Regressed {
		t.Fatalf("finding 0 wrongly regressed: %+v", findings[0])
	}
	// Second bench: 91ms vs 1µs baseline (time blowout) and 16 vs 3
	// allocs (alloc blowout) — both gates must fire.
	if !findings[1].Regressed || len(findings[1].Reasons) != 2 {
		t.Fatalf("finding 1 should fail both gates: %+v", findings[1])
	}

	var sb strings.Builder
	if n := Report(&sb, findings); n != 1 {
		t.Fatalf("Report counted %d regressions, want 1", n)
	}
	if !strings.Contains(sb.String(), "REGRESSED") {
		t.Fatal("report missing REGRESSED marker")
	}
}

func TestCompareAllocSlackAbsorbsSmallMoves(t *testing.T) {
	base := []Row{
		{"BenchmarkX", "ns/op", "ns", 1000},
		{"BenchmarkX", "allocs/op", "allocs", 15},
	}
	cur := []Row{
		{"BenchmarkX", "ns/op", "ns", 1200},
		{"BenchmarkX", "allocs/op", "allocs", 17},
	}
	if findings, _ := Compare(cur, base); findings[0].Regressed {
		t.Fatalf("15 -> 17 allocs within slack, wrongly regressed: %+v", findings[0])
	}
	cur[1].Value = 40
	if findings, _ := Compare(cur, base); !findings[0].Regressed {
		t.Fatal("15 -> 40 allocs must regress")
	}
}

// TestCompareFExactGate: a partitioned ordering's F/exact is an exact
// count, so holding the baseline passes and any drop fails.
func TestCompareFExactGate(t *testing.T) {
	base := []Row{{"BenchmarkOrderPartitioned/web120k", "F/exact", "F/exact", 0.9121}}
	cur := []Row{{"BenchmarkOrderPartitioned/web120k", "F/exact", "F/exact", 0.9121}}
	if findings, _ := Compare(cur, base); findings[0].Regressed {
		t.Fatalf("unchanged F/exact regressed: %+v", findings[0])
	}
	cur[0].Value = 0.912
	if findings, _ := Compare(cur, base); !findings[0].Regressed {
		t.Fatal("F/exact 0.9121 -> 0.912 must regress")
	}
}

func TestLoadBaselineRejectsWrongShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"benchmarks": [{"name": "BenchmarkX", "ns_per_op": 1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("baseline without a rows array must error")
	}
}

func TestSuiteOf(t *testing.T) {
	if got := SuiteOf("/some/dir/BENCH_gorder.json"); got != "gorder" {
		t.Fatalf("SuiteOf = %q, want gorder", got)
	}
}
