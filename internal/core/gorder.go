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
// re-walking its lists in the same order, so the log never grows and
// the loop performs no per-placement allocation.
// TestOrderOptimizedMatchesReference and TestIncrementalMatchesReference
// hold the bit-for-bit equivalence against the per-bump oracles.
//
// The run adds its heap operations, adjacency entries scanned,
// extracted keys and sequence length, prefix included, to the
// context's OrderStats carrier, if one is attached. Each extracted key
// is the vertex's score against the window it joins, so from a
// one-vertex prefix at exact scores the key sum is F(pi).
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
		hub:      int64(opt.HubThreshold),
		live:     make([][]graph.NodeID, n),
		chunk:    n / 2,
		uncopied: len(g.OutAdjacency()),
		cnt:      make([]bumpCount, n),
		log:      make([]int32, 0, greedyLogCap),
		logged:   true,
	}
	var keySum int64
	if st := orderStatsFrom(ctx); st != nil {
		defer func() { st.add(s.heapOps, s.scans, keySum, int64(len(seq))) }()
	}

	for _, v := range seq {
		s.h.Delete(int(v))
		s.heapOps++
	}
	if len(seq) == 0 {
		v, key, _ := s.h.ExtractMax()
		s.heapOps++
		keySum += int64(key)
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

		next, key, ok := s.h.ExtractMax()
		s.heapOps++
		if !ok {
			break
		}
		keySum += int64(key)
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

	// live[x] is x's out-list cut down to the candidates still in the
	// heap, in adjacency order: copied into the arena on its first scan
	// (nil until then) and compacted in place on every later one, so
	// extracted vertices are skipped once instead of on every scan.
	// The arena grows as lists are first scanned, in chunks that
	// double from n entries but never exceed the adjacency not yet
	// copied (uncopied), so a run that touches few lists (an
	// incremental append) allocates little; free is the current
	// chunk's unused tail.
	live     [][]graph.NodeID
	free     []graph.NodeID
	chunk    int
	uncopied int

	// cnt holds each touched item's net key change and its remaining
	// +phase / -phase occurrence counts. The apply pass drives every
	// touched entry back to zero, so the array never needs a clearing
	// pass.
	cnt []bumpCount

	// log records the bump sequence of the current placement while it
	// fits; logged reports whether it is complete (capacity never
	// overflowed this placement).
	log    []int32
	logged bool

	heapOps, scans int64
}

// bumpCount is one candidate's accumulated bumps for the current
// placement, kept together so a bump touches one cache line.
type bumpCount struct {
	delta, pc, mc int32
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
		s.applyLog(s.log[:plusEnd], false)
		s.applyLog(s.log[plusEnd:minusEnd], true)
	} else {
		s.rescan(v, false)
		if hasMinus {
			s.rescan(ov, true)
		}
	}
	s.log = s.log[:0]
	s.logged = true
}

// liveOut returns x's live out-list, copying the still-live part of
// its adjacency into the arena on the first call.
func (s *greedyState) liveOut(x graph.NodeID) []graph.NodeID {
	if l := s.live[x]; l != nil {
		return l
	}
	return s.copyOut(x)
}

// copyOut is liveOut's first-scan path, kept out of line so that
// liveOut inlines into the scan loops.
func (s *greedyState) copyOut(x graph.NodeID) []graph.NodeID {
	src := s.outAdj[s.outIdx[x]:s.outIdx[x+1]]
	if len(src) == 0 {
		return nil
	}
	if len(s.free) < len(src) {
		s.chunk = min(max(2*s.chunk, len(src)), s.uncopied)
		s.free = make([]graph.NodeID, s.chunk)
	}
	s.uncopied -= len(src)
	l := s.free[:0]
	for _, u := range src {
		if s.h.node[u].in {
			l = append(l, u)
		}
	}
	s.free = s.free[len(l):]
	s.live[x] = l
	return l
}

// accumulate walks v's score contributions in the reference traversal
// order — out-neighbours, then each in-neighbour followed by its
// non-hub sibling expansion — counting occurrences and net deltas for
// every candidate still in the heap. No extraction happens between
// accumulation and apply, so membership cannot change within a
// placement; out-lists are compacted to their live entries as they
// are scanned, which drops v itself (already extracted) from its
// siblings' lists. It returns the log length after this phase.
func (s *greedyState) accumulate(v graph.NodeID, minus bool) int {
	s.scanLive(v, minus)
	in := s.inAdj[s.inIdx[v]:s.inIdx[v+1]]
	s.scans += int64(len(in))
	for _, x := range in {
		if s.h.node[x].in {
			s.bump(x, minus)
		}
		if s.hub > 0 && s.outIdx[x+1]-s.outIdx[x] > s.hub {
			continue
		}
		s.scanLive(x, minus)
	}
	return len(s.log)
}

// scanLive bumps every live entry of x's out-list and compacts the
// list in place, keeping the live entries in order.
func (s *greedyState) scanLive(x graph.NodeID, minus bool) {
	l := s.liveOut(x)
	s.scans += int64(len(l))
	node := s.h.node
	k := 0
	for _, u := range l {
		if node[u].in {
			l[k] = u
			k++
			s.bump(u, minus)
		}
	}
	if k < len(l) {
		s.live[x] = l[:k]
	}
}

func (s *greedyState) bump(u graph.NodeID, minus bool) {
	c := &s.cnt[u]
	if minus {
		c.mc++
		c.delta--
	} else {
		c.pc++
		c.delta++
	}
	if len(s.log) < cap(s.log) {
		s.log = append(s.log, int32(u))
	} else {
		s.logged = false
	}
}

// applyLog replays one phase's bump sequence, relocating each item
// at its last occurrence. A +phase item the -phase did not touch moves
// with a class-tail append, as a trailing Inc would have left it;
// items the -phase also touched relocate in the -phase apply instead.
// A -phase item moves with a class-head prepend, as a trailing Dec
// would have left it — even at net delta zero, which still moves the
// item to its class head.
func (s *greedyState) applyLog(log []int32, minus bool) {
	h, cnt := s.h, s.cnt
	if !minus {
		for _, u := range log {
			c := &cnt[u]
			c.pc--
			if c.pc == 0 && c.mc == 0 {
				h.addTail(u, c.delta)
				s.heapOps++
				c.delta = 0
			}
		}
		return
	}
	for _, u := range log {
		c := &cnt[u]
		c.mc--
		if c.mc == 0 {
			h.addFront(u, c.delta)
			s.heapOps++
			c.delta = 0
		}
	}
}

// rescan applies one phase of a placement whose bump sequence
// overflowed the log: re-walking v's contributions in accumulate order
// visits exactly the sequence the log would have held, and feeds it to
// applyLog one full log at a time. accumulate left every out-list it
// walked compacted to live entries, so only v's in-list needs the
// membership test.
func (s *greedyState) rescan(v graph.NodeID, minus bool) {
	s.log = s.log[:0]
	replay := func(u graph.NodeID) {
		if len(s.log) == cap(s.log) {
			s.applyLog(s.log, minus)
			s.log = s.log[:0]
		}
		s.log = append(s.log, int32(u))
	}
	out, in := s.live[v], s.inAdj[s.inIdx[v]:s.inIdx[v+1]]
	s.scans += int64(len(out) + len(in))
	for _, u := range out {
		replay(u)
	}
	for _, x := range in {
		if s.h.node[x].in {
			replay(x)
		}
		if s.hub > 0 && s.outIdx[x+1]-s.outIdx[x] > s.hub {
			continue
		}
		s.scans += int64(len(s.live[x]))
		for _, u := range s.live[x] {
			replay(u)
		}
	}
	s.applyLog(s.log, minus)
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
