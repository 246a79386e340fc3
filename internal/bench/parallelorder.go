package bench

import (
	"fmt"
	"runtime"

	"gorder/internal/core"
	"gorder/internal/gen"
	"gorder/internal/order"
)

// parallelOrderRow is one configuration of the parallel-ordering
// scaling experiment: a method at a worker bound, with its wall-clock
// and quality (F and packing factor).
type parallelOrderRow struct {
	method  string
	workers int
	seconds float64
	scoreF  int64
	packing float64
}

// parallelOrderWorkers is the scaling grid of the experiment.
var parallelOrderWorkers = []int{1, 2, 4, 8}

// ParallelOrder quantifies the quality-vs-wall-clock trade of the
// partition-parallel Gorder and the lightweight parallel family on the
// 1M-edge web workload (the same graph as BenchmarkOrderWith/web1M).
// Rows: exact Gorder as the reference, gorder-partitioned at 1/2/4/8
// workers (default partition grid — the permutation is
// worker-independent, so F is constant across those rows and only the
// wall-clock moves), and BOBA. On a single-core host the partitioned
// speedup is pure work reduction: ordering k small ghost-extended
// subgraphs is cheaper than one large exact greedy.
func (r *Runner) ParallelOrder() Table {
	n := int(100000 * r.Scale)
	if n < 1000 {
		n = 1000
	}
	g := gen.Web(n, gen.DefaultWeb, 0x90DE)
	w := core.DefaultWindow
	reps := r.Reps
	if reps < 1 {
		reps = 1
	}

	// timeBest runs f reps times and keeps the fastest wall-clock; every
	// method here is deterministic, so the permutation is rep-invariant.
	timeBest := func(f func() order.Permutation) (float64, order.Permutation) {
		best, p := 0.0, order.Permutation(nil)
		for i := 0; i < reps; i++ {
			secs, perm := timeIt(f)
			if p == nil || secs < best {
				best, p = secs, perm
			}
		}
		return best, p
	}

	var rows []parallelOrderRow
	addRow := func(method string, workers int, secs float64, p order.Permutation) parallelOrderRow {
		row := parallelOrderRow{
			method: method, workers: workers, seconds: secs,
			scoreF:  order.Score(g, p, w),
			packing: order.PackingFactor(g, p),
		}
		rows = append(rows, row)
		return row
	}

	exactSecs, exactPerm := timeBest(func() order.Permutation {
		return core.OrderWith(g, core.Options{Window: w})
	})
	exact := addRow("gorder", 1, exactSecs, exactPerm)
	r.logf("parallel gorder exact done (%.2fs)", exactSecs)

	for _, workers := range parallelOrderWorkers {
		wk := workers
		secs, perm := timeBest(func() order.Permutation {
			return core.OrderPartitioned(g, core.Options{Window: w},
				core.PartitionedOptions{Workers: wk})
		})
		addRow("gorder-partitioned", wk, secs, perm)
		r.logf("parallel gorder-partitioned workers=%d done (%.2fs)", wk, secs)
	}

	bobaSecs, bobaPerm := timeBest(func() order.Permutation { return order.BOBA(g) })
	addRow("boba", runtime.GOMAXPROCS(0), bobaSecs, bobaPerm)
	r.logf("parallel boba done (%.4fs)", bobaSecs)

	t := Table{
		ID: "parallel",
		Title: fmt.Sprintf("Parallel ordering scaling on web n=%d m=%d (window %d)",
			g.NumNodes(), g.NumEdges(), w),
		Header: []string{"method", "workers", "time", "F(pi)", "F/exact", "packing", "speedup"},
		Notes: []string{
			"gorder-partitioned permutation is worker-independent: F is identical across worker rows",
			fmt.Sprintf("host has %d core(s); single-core speedup is work reduction, multi-core adds concurrency on top", runtime.NumCPU()),
		},
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			row.method, fmt.Sprintf("%d", row.workers), fmtSecs(row.seconds),
			fmt.Sprintf("%d", row.scoreF), fmt.Sprintf("%.3f", float64(row.scoreF)/float64(exact.scoreF)),
			fmt.Sprintf("%.2f", row.packing), fmt.Sprintf("%.2fx", exact.seconds/row.seconds),
		})
	}
	return t
}
