package core

import (
	"context"

	"gorder/internal/graph"
	"gorder/internal/order"
)

// DefaultWindow is the window size w the papers settle on: larger
// windows score slightly better but cost more to compute (the paper's
// Figure 8 / the replication's Figure 4), and the greedy algorithm's
// approximation bound 1/(2w) tightens as w shrinks.
const DefaultWindow = 5

// Options configures the Gorder computation.
type Options struct {
	// Window is the window size w. Zero means DefaultWindow.
	Window int
	// HubThreshold, when positive, skips the sibling-score expansion
	// through in-neighbours whose out-degree exceeds the threshold.
	// This is the paper's practical optimisation for power-law graphs:
	// a hub with out-degree d contributes d sibling updates per window
	// event, and a handful of hubs dominate the runtime while barely
	// changing the ordering. Zero computes exact scores.
	HubThreshold int
}

// cancelCheckInterval is how many vertex placements the greedy loop
// performs between context-cancellation checks. The interval keeps the
// ctx.Err() cost off the per-insertion hot path while still bounding
// the latency of a cancellation to a few hundred heap operations.
const cancelCheckInterval = 128

// Order computes the Gorder permutation of g with default options.
func Order(g *graph.Graph) order.Permutation {
	return OrderWith(g, Options{})
}

// OrderWith computes the Gorder permutation of g: a relabeling that
// greedily maximises F(pi), the sum of S(u,v) over vertex pairs whose
// new IDs are within the window w of each other, where S counts
// neighbour relations and shared in-neighbours.
func OrderWith(g *graph.Graph, opt Options) order.Permutation {
	p, _ := OrderWithCtx(context.Background(), g, opt)
	return p
}

// OrderWithCtx is OrderWith with cooperative cancellation: the greedy
// loop checks ctx every cancelCheckInterval insertions and returns
// ctx.Err() (with a nil permutation) once the context is done. This is
// what lets a serving layer bound ordering jobs with deadlines instead
// of tying up a worker for the full O(superlinear) run.
func OrderWithCtx(ctx context.Context, g *graph.Graph, opt Options) (order.Permutation, error) {
	n := g.NumNodes()
	if n == 0 {
		return order.Permutation{}, ctx.Err()
	}
	seq := make([]graph.NodeID, 1, n)
	seq[0] = graph.NodeID(startVertex(g))
	return orderFrom(ctx, g, opt, seq)
}

// startVertex returns the vertex with maximum in-degree (the most
// shared data structure in the graph), lowest ID on ties, reading the
// in-CSR offsets directly instead of issuing n InDegree calls.
func startVertex(g *graph.Graph) int32 {
	inIdx := g.InIndex()
	start, best := int32(0), inIdx[1]-inIdx[0]
	for v := 1; v < g.NumNodes(); v++ {
		if d := inIdx[v+1] - inIdx[v]; d > best {
			start, best = int32(v), d
		}
	}
	return start
}

// orderFrom is the greedy loop every Gorder ordering runs: it extends
// seq, an already-placed prefix with capacity n, to a full sequence.
// The prefix leaves the heap and its last w vertices prime the window
// as plus-only steps; an empty prefix starts from the first
// ExtractMax. OrderWithCtx passes the start vertex as the prefix and
// OrderIncrementalCtx the compacted clean prefix of its base.
//
// The loop is specialised on the concrete *UnitHeap and batched:
// instead of issuing one heap splice per ±1 score bump, each placement
// accumulates net deltas in scratch arrays and relocates every touched
// candidate once.
//
// The batching preserves the per-bump loop's permutation bit for bit,
// which takes care, because a UnitHeap breaks ties by list position
// and every individual bump moves the item: an Inc appends the item to
// the tail of the class above, a Dec prepends it to the head of the
// class below. The final list is therefore determined by each touched
// item's *last* bump: its final class, whether that last bump was an
// Inc (append) or a Dec (prepend), and the order of those final bumps.
// The loop reproduces exactly that: the accumulate pass counts
// occurrences and net deltas in scratch arrays while recording the
// bump sequence in a fixed-capacity log, and the apply pass replays
// the sequence, relocating each item exactly at its last occurrence —
// addTail for items whose bumps were all +1, addFront (even at net
// delta zero, which still moves the item to its class head) for items
// the -phase touched. A placement whose bump count overflows the log
// (a hub placement can produce ~m bump events) falls back to
// re-traversing its adjacency ranges in the same order, so the log
// never grows and the loop performs no per-placement allocation.
// TestOrderOptimizedMatchesReference and TestIncrementalMatchesReference
// hold the bit-for-bit equivalence against the per-bump oracles.
//
// The run adds its heap operations and its sequence length, prefix
// included, to the context's OrderStats carrier, if one is attached.
func orderFrom(ctx context.Context, g *graph.Graph, opt Options, seq []graph.NodeID) (order.Permutation, error) {
	w := opt.Window
	if w <= 0 {
		w = DefaultWindow
	}
	n := g.NumNodes()
	s := &greedyState{
		h:      NewUnitHeap(n),
		outIdx: g.OutIndex(), outAdj: g.OutAdjacency(),
		inIdx: g.InIndex(), inAdj: g.InAdjacency(),
		hub:    int64(opt.HubThreshold),
		delta:  make([]int32, n),
		pc:     make([]int32, n),
		mc:     make([]int32, n),
		log:    make([]int32, 0, greedyLogCap),
		logged: true,
	}
	if st := orderStatsFrom(ctx); st != nil {
		defer func() { st.add(s.heapOps, int64(len(seq))) }()
	}

	for _, v := range seq {
		s.h.Delete(int(v))
		s.heapOps++
	}
	if len(seq) == 0 {
		v, _, _ := s.h.ExtractMax()
		s.heapOps++
		seq = append(seq, graph.NodeID(v))
	}
	// Prime the window with the prefix's last w vertices; the last one
	// enters it in the loop's first step. Only primed vertices (index
	// >= lo) ever leave it.
	p := len(seq)
	lo := max(0, p-w)
	for _, v := range seq[lo : p-1] {
		s.slide(v, 0, false)
	}

	for i := p; i < n; i++ {
		if (i-p)%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		hasMinus := i-1-w >= lo
		var ov graph.NodeID
		if hasMinus {
			ov = seq[i-1-w]
		}
		s.slide(seq[i-1], ov, hasMinus)

		next, _, ok := s.h.ExtractMax()
		s.heapOps++
		if !ok {
			break
		}
		seq = append(seq, graph.NodeID(next))
	}
	return order.FromSequence(seq), nil
}

// greedyLogCap bounds the per-placement bump log: one preallocated
// buffer shared by the +phase and -phase, never grown. Typical
// placements produce tens to hundreds of bumps; only hub placements
// overflow into the rescan fallback.
const greedyLogCap = 1 << 14

// greedyState carries the batched greedy loop's scratch state so the
// accumulate/apply passes stay readable without per-call closures.
type greedyState struct {
	h      *UnitHeap
	outIdx []int64
	outAdj []graph.NodeID
	inIdx  []int64
	inAdj  []graph.NodeID
	hub    int64 // 0 = exact scores

	// delta holds each touched item's net key change this placement;
	// pc and mc hold its remaining +phase / -phase occurrence counts.
	// The apply pass drives every touched entry back to zero, so the
	// arrays never need a clearing pass.
	delta []int32
	pc    []int32
	mc    []int32

	// log records the bump sequence of the current placement while it
	// fits; logged reports whether it is complete (capacity never
	// overflowed this placement).
	log    []int32
	logged bool

	heapOps int64
}

// slide moves the window one step: v enters it (the +phase) and, when
// hasMinus, ov leaves it (the -phase). Every touched candidate is
// relocated once, at the position its last individual bump would have
// left it.
func (s *greedyState) slide(v, ov graph.NodeID, hasMinus bool) {
	plusEnd := s.accumulate(v, false)
	minusEnd := plusEnd
	if hasMinus {
		minusEnd = s.accumulate(ov, true)
	}
	if s.logged {
		s.applyPlusLog(s.log[:plusEnd])
		s.applyMinusLog(s.log[plusEnd:minusEnd])
	} else {
		s.applyPlusRescan(v)
		if hasMinus {
			s.applyMinusRescan(ov)
		}
	}
	s.log = s.log[:0]
	s.logged = true
}

// accumulate walks v's score contributions in the reference traversal
// order — out-neighbours, then each in-neighbour followed by its
// non-hub sibling expansion — counting occurrences and net deltas for
// every candidate still in the heap. Candidates already extracted are
// skipped here once instead of per heap op: no extraction happens
// between accumulation and apply, so membership cannot change. It
// returns the log length after this phase.
func (s *greedyState) accumulate(v graph.NodeID, minus bool) int {
	inHeap := s.h.inHeap
	cnt := s.pc
	d := int32(1)
	if minus {
		cnt = s.mc
		d = -1
	}
	for _, u := range s.outAdj[s.outIdx[v]:s.outIdx[v+1]] {
		if inHeap[u] {
			cnt[u]++
			s.delta[u] += d
			s.logBump(int32(u))
		}
	}
	for _, x := range s.inAdj[s.inIdx[v]:s.inIdx[v+1]] {
		if inHeap[x] {
			cnt[x]++
			s.delta[x] += d
			s.logBump(int32(x))
		}
		if s.hub > 0 && s.outIdx[x+1]-s.outIdx[x] > s.hub {
			continue
		}
		for _, u := range s.outAdj[s.outIdx[x]:s.outIdx[x+1]] {
			if u != v && inHeap[u] {
				cnt[u]++
				s.delta[u] += d
				s.logBump(int32(u))
			}
		}
	}
	return len(s.log)
}

func (s *greedyState) logBump(u int32) {
	if len(s.log) < cap(s.log) {
		s.log = append(s.log, u)
	} else {
		s.logged = false
	}
}

// applyPlusLog relocates each all-plus item at its last logged
// occurrence with a class-tail append, as a trailing Inc would have
// left it. Items the -phase also touched relocate in the -phase apply
// instead.
func (s *greedyState) applyPlusLog(log []int32) {
	for _, u := range log {
		s.pc[u]--
		if s.pc[u] == 0 && s.mc[u] == 0 {
			s.h.addTail(u, s.delta[u])
			s.heapOps++
			s.delta[u] = 0
		}
	}
}

// applyMinusLog relocates every -phase-touched item at its last logged
// occurrence with a class-head prepend, as a trailing Dec would have
// left it — even at net delta zero, which still moves the item to its
// class head.
func (s *greedyState) applyMinusLog(log []int32) {
	for _, u := range log {
		s.mc[u]--
		if s.mc[u] == 0 {
			s.h.addFront(u, s.delta[u])
			s.heapOps++
			s.delta[u] = 0
		}
	}
}

// applyPlusRescan is applyPlusLog for placements whose bump sequence
// overflowed the log: re-walking v's contributions in accumulate order
// visits exactly the logged sequence.
func (s *greedyState) applyPlusRescan(v graph.NodeID) {
	inHeap := s.h.inHeap
	for _, u := range s.outAdj[s.outIdx[v]:s.outIdx[v+1]] {
		if inHeap[u] {
			s.applyPlusOne(int32(u))
		}
	}
	for _, x := range s.inAdj[s.inIdx[v]:s.inIdx[v+1]] {
		if inHeap[x] {
			s.applyPlusOne(int32(x))
		}
		if s.hub > 0 && s.outIdx[x+1]-s.outIdx[x] > s.hub {
			continue
		}
		for _, u := range s.outAdj[s.outIdx[x]:s.outIdx[x+1]] {
			if u != v && inHeap[u] {
				s.applyPlusOne(int32(u))
			}
		}
	}
}

func (s *greedyState) applyPlusOne(u int32) {
	s.pc[u]--
	if s.pc[u] == 0 && s.mc[u] == 0 {
		s.h.addTail(u, s.delta[u])
		s.heapOps++
		s.delta[u] = 0
	}
}

// applyMinusRescan is applyMinusLog's rescan fallback.
func (s *greedyState) applyMinusRescan(ov graph.NodeID) {
	inHeap := s.h.inHeap
	for _, u := range s.outAdj[s.outIdx[ov]:s.outIdx[ov+1]] {
		if inHeap[u] {
			s.applyMinusOne(int32(u))
		}
	}
	for _, x := range s.inAdj[s.inIdx[ov]:s.inIdx[ov+1]] {
		if inHeap[x] {
			s.applyMinusOne(int32(x))
		}
		if s.hub > 0 && s.outIdx[x+1]-s.outIdx[x] > s.hub {
			continue
		}
		for _, u := range s.outAdj[s.outIdx[x]:s.outIdx[x+1]] {
			if u != ov && inHeap[u] {
				s.applyMinusOne(int32(u))
			}
		}
	}
}

func (s *greedyState) applyMinusOne(u int32) {
	s.mc[u]--
	if s.mc[u] == 0 {
		s.h.addFront(u, s.delta[u])
		s.heapOps++
		s.delta[u] = 0
	}
}

// MultilevelOrder runs Gorder on a coarsened graph and projects the
// order back — a scalable approximation for graphs where the exact
// greedy is too slow (Table 2's superlinear growth). It combines the
// multilevel machinery in the order package with Gorder as the
// coarse-level solver, the ordering analogue of the multilevel
// partitioners the papers could not scale.
func MultilevelOrder(g *graph.Graph, opt Options, coarsenTo int) order.Permutation {
	return order.Multilevel(g, order.MultilevelOptions{
		CoarsenTo: coarsenTo,
		OrderCoarse: func(cg *graph.Graph) order.Permutation {
			return OrderWith(cg, opt)
		},
	})
}
