package core

import (
	"context"
	"sync/atomic"
)

// OrderStats accumulates operation counts across Gorder greedy runs:
// how many priority-queue mutations (bulk Adds, Inc/Decs, extractions,
// deletions) the runs performed and how many vertices they placed.
// Attach one to a context with WithOrderStats; every greedy run under
// that context adds its counts on return (including cancelled runs,
// which report the work done so far). The counters are atomic so the
// concurrent per-partition runs of OrderPartitionedCtx can share one carrier.
type OrderStats struct {
	heapOps    atomic.Int64
	placements atomic.Int64
}

func (s *OrderStats) add(heapOps, placements int64) {
	s.heapOps.Add(heapOps)
	s.placements.Add(placements)
}

// HeapOps returns the accumulated priority-queue operation count.
func (s *OrderStats) HeapOps() int64 { return s.heapOps.Load() }

// Placements returns the accumulated number of placed vertices.
func (s *OrderStats) Placements() int64 { return s.placements.Load() }

type orderStatsKey struct{}

// WithOrderStats returns a context under which every Gorder greedy run
// (OrderWithCtx, OrderIncrementalCtx with its frozen prefix counted as
// placed, and each partition of OrderPartitionedCtx) adds its
// operation counts to st — an httptrace-style carrier, so the
// instrumentation costs nothing when absent and needs no change to the
// ordering signatures. The registry's ComputeObserved uses it to put
// heap-op and placement counts on every Observation.
func WithOrderStats(ctx context.Context, st *OrderStats) context.Context {
	return context.WithValue(ctx, orderStatsKey{}, st)
}

// orderStatsFrom retrieves the carrier, or nil when none is attached.
func orderStatsFrom(ctx context.Context) *OrderStats {
	st, _ := ctx.Value(orderStatsKey{}).(*OrderStats)
	return st
}
