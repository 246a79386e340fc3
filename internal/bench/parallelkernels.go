package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gorder/internal/algos"
	"gorder/internal/core"
	"gorder/internal/exec"
	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/stats"
)

// ParallelKernelRow is one (kernel, workers) cell of the multicore
// kernel-engine scaling experiment. Workers 0 is the serial oracle
// from internal/algos; everything else runs on internal/exec.
type ParallelKernelRow struct {
	Kernel  string  `json:"kernel"`
	Workers int     `json:"workers"` // 0 = serial oracle
	Seconds float64 `json:"seconds"`
	// SpeedupVsSerial is serial-seconds / this-row-seconds; on a 1-core
	// host it reads as engine overhead (≈1.0 when the chunked engine
	// costs nothing over the serial loop).
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	// Parity records the per-run result check against the serial
	// oracle: "bit-identical" or a diff description.
	Parity string `json:"parity"`
}

// ParallelKernelsReport is the JSON shape bench_kernels.sh persists as
// BENCH_kernels.json. Beyond the timing rows it carries the
// work-partition evidence that stands in for wall-clock speedup on
// single-core hosts (see EXPERIMENTS.md): the chunk grid's edge
// balance bounds the achievable parallel speedup independently of how
// many cores this machine happens to have.
type ParallelKernelsReport struct {
	GeneratedBy string `json:"generated_by"`
	Dataset     string `json:"dataset"`
	Nodes       int    `json:"nodes"`
	Edges       int64  `json:"edges"`
	Cores       int    `json:"cores"`
	Reps        int    `json:"reps"`
	PRIters     int    `json:"pr_iters"`
	Ordering    string `json:"ordering"`
	// Chunk-grid work partition over the ordered graph: chunks in the
	// grid, mean and max in-edges per chunk (the pull-kernel work
	// unit), and the imbalance ratio max/mean. With dynamic chunk
	// claiming, speedup at w workers is bounded by
	// totalWork / (totalWork/w + maxChunk) — near-ideal while
	// imbalance stays near 1 and chunks stay plentiful.
	Chunks         int                 `json:"chunks"`
	MeanChunkEdges float64             `json:"mean_chunk_edges"`
	MaxChunkEdges  int64               `json:"max_chunk_edges"`
	EdgeImbalance  float64             `json:"edge_imbalance"`
	SpeedupBound4  float64             `json:"speedup_bound_4workers"`
	ParityAllExact bool                `json:"parity_all_exact"`
	Rows           []ParallelKernelRow `json:"rows"`
}

// parallelKernelWorkers is the scaling grid of the experiment.
var parallelKernelWorkers = []int{1, 2, 4, 8}

// ParallelKernels measures the multicore kernel engine against the
// serial oracles on the 1M-edge web workload (the same graph family as
// ParallelOrder), relabeled by Gorder so the engine's contiguous
// chunks are exactly the ordering's cache-friendly windows. For every
// engine kernel (PR, BFS, SP, Tri) it times the serial oracle and the
// engine at 1/2/4/8 workers, verifies
// bit-identical results per run, and computes the chunk-grid work
// balance that bounds multicore speedup on any host.
func (r *Runner) ParallelKernels() (Table, *ParallelKernelsReport) {
	n := int(100000 * r.Scale)
	if n < 1000 {
		n = 1000
	}
	g0 := gen.Web(n, gen.DefaultWeb, 0x90DE)
	perm := core.OrderWith(g0, core.Options{Window: core.DefaultWindow})
	g := g0.Relabel(perm)
	r.logf("parallel-kernels graph ready: n=%d m=%d (gorder-relabeled)", g.NumNodes(), g.NumEdges())

	reps := r.Reps
	if reps < 1 {
		reps = 1
	}
	prIters := r.Params.PageRankIters
	if prIters <= 0 || prIters > 20 {
		prIters = 20 // the scaling shape is iteration-count-invariant
	}
	ctx := context.Background()

	rep := &ParallelKernelsReport{
		GeneratedBy:    "scripts/bench_kernels.sh",
		Dataset:        fmt.Sprintf("gen.Web(%d, DefaultWeb, 0x90DE) + gorder", n),
		Nodes:          g.NumNodes(),
		Edges:          g.NumEdges(),
		Cores:          runtime.NumCPU(),
		Reps:           reps,
		PRIters:        prIters,
		Ordering:       "gorder",
		ParityAllExact: true,
	}

	// Work-partition evidence: in-edges per chunk of the engine's grid
	// (the pull-PageRank work unit — the dominant parallel section).
	chunks := exec.ChunksFor(g.NumNodes())
	inIdx := g.InIndex()
	var maxChunk int64
	for c := 0; c < chunks; c++ {
		lo, hi := exec.ChunkRange(g.NumNodes(), chunks, c)
		if w := inIdx[hi] - inIdx[lo]; w > maxChunk {
			maxChunk = w
		}
	}
	total := float64(g.NumEdges())
	rep.Chunks = chunks
	rep.MeanChunkEdges = total / float64(chunks)
	rep.MaxChunkEdges = maxChunk
	rep.EdgeImbalance = float64(maxChunk) / rep.MeanChunkEdges
	rep.SpeedupBound4 = total / (total/4 + float64(maxChunk))

	median := func(f func()) float64 {
		times := make([]float64, reps)
		for i := range times {
			start := time.Now()
			f()
			times[i] = time.Since(start).Seconds()
		}
		return stats.Median(times)
	}
	src := graph.NodeID(0)

	type kernelCase struct {
		name     string
		serial   func() any
		parallel func(workers int) (any, error)
		equal    func(a, b any) bool
	}
	cases := []kernelCase{
		{
			name:   "PR",
			serial: func() any { return algos.PageRank(g, prIters, algos.DefaultDamping) },
			parallel: func(w int) (any, error) {
				return exec.PageRank(ctx, g, prIters, algos.DefaultDamping, w, nil)
			},
			equal: func(a, b any) bool {
				x, y := a.([]float64), b.([]float64)
				for i := range x {
					if x[i] != y[i] {
						return false
					}
				}
				return true
			},
		},
		{
			name:   "BFS",
			serial: func() any { d, _ := algos.BFSFrom(g, src); return d },
			parallel: func(w int) (any, error) {
				d, _, err := exec.DOBFS(ctx, g, src, w, nil)
				return d, err
			},
			equal: func(a, b any) bool {
				x, y := a.([]int32), b.([]int32)
				for i := range x {
					if x[i] != y[i] {
						return false
					}
				}
				return true
			},
		},
		{
			name:   "SP",
			serial: func() any { return algos.BellmanFord(g, src) },
			parallel: func(w int) (any, error) {
				return exec.ShortestPaths(ctx, g, src, w, nil)
			},
			equal: func(a, b any) bool {
				x, y := a.([]int32), b.([]int32)
				for i := range x {
					if x[i] != y[i] {
						return false
					}
				}
				return true
			},
		},
		{
			name:   "Tri",
			serial: func() any { return algos.TriangleCount(g) },
			parallel: func(w int) (any, error) {
				return exec.TriangleCount(ctx, g, w, nil)
			},
			equal: func(a, b any) bool { return a.(int64) == b.(int64) },
		},
	}

	for _, kc := range cases {
		var serialOut any
		serialSecs := median(func() { serialOut = kc.serial() })
		rep.Rows = append(rep.Rows, ParallelKernelRow{
			Kernel: kc.name, Workers: 0, Seconds: serialSecs,
			SpeedupVsSerial: 1, Parity: "oracle",
		})
		r.logf("parallel-kernels %s serial done (%.3fs)", kc.name, serialSecs)
		for _, w := range parallelKernelWorkers {
			var parOut any
			var perr error
			secs := median(func() { parOut, perr = kc.parallel(w) })
			if perr != nil {
				panic(fmt.Sprintf("bench: parallel %s workers=%d: %v", kc.name, w, perr))
			}
			parity := "bit-identical"
			if !kc.equal(serialOut, parOut) {
				parity = "DIVERGED"
				rep.ParityAllExact = false
			}
			rep.Rows = append(rep.Rows, ParallelKernelRow{
				Kernel: kc.name, Workers: w, Seconds: secs,
				SpeedupVsSerial: serialSecs / secs, Parity: parity,
			})
			r.logf("parallel-kernels %s workers=%d done (%.3fs)", kc.name, w, secs)
		}
	}

	t := Table{
		ID: "kernels",
		Title: fmt.Sprintf("Parallel kernel engine on gorder-ordered web n=%d m=%d",
			g.NumNodes(), g.NumEdges()),
		Header: []string{"kernel", "workers", "time", "speedup", "parity"},
		Notes: []string{
			fmt.Sprintf("host has %d core(s); chunk grid: %d chunks, edge imbalance %.2f, 4-worker speedup bound %.2fx",
				runtime.NumCPU(), rep.Chunks, rep.EdgeImbalance, rep.SpeedupBound4),
			"workers 0 is the serial internal/algos oracle; parallel rows must be bit-identical to it",
		},
	}
	for _, row := range rep.Rows {
		w := fmt.Sprintf("%d", row.Workers)
		if row.Workers == 0 {
			w = "serial"
		}
		t.Rows = append(t.Rows, []string{
			row.Kernel, w, fmtSecs(row.Seconds),
			fmt.Sprintf("%.2fx", row.SpeedupVsSerial), row.Parity,
		})
	}
	return t, rep
}
