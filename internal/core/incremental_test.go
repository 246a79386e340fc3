package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
)

// grow extends g with extra new vertices, each linking to a few
// existing ones (and some back-links), mimicking graph evolution.
func grow(rng *rand.Rand, g *graph.Graph, extra int) *graph.Graph {
	n := g.NumNodes()
	var edges []graph.Edge
	g.Edges(func(u, v graph.NodeID) bool {
		edges = append(edges, graph.Edge{From: u, To: v})
		return true
	})
	for v := n; v < n+extra; v++ {
		links := 1 + rng.Intn(4)
		for j := 0; j < links; j++ {
			t := graph.NodeID(rng.Intn(v))
			edges = append(edges, graph.Edge{From: graph.NodeID(v), To: t})
			if rng.Intn(2) == 0 {
				edges = append(edges, graph.Edge{From: t, To: graph.NodeID(v)})
			}
		}
	}
	return graph.FromEdgesDedup(n+extra, edges)
}

// churn applies random edge deletions to g (no vertex changes) and
// returns the new graph plus the dirty endpoints of deleted edges.
func churn(rng *rand.Rand, g *graph.Graph, dels int) (*graph.Graph, []graph.NodeID) {
	var edges []graph.Edge
	g.Edges(func(u, v graph.NodeID) bool {
		edges = append(edges, graph.Edge{From: u, To: v})
		return true
	})
	var dirty []graph.NodeID
	for i := 0; i < dels && len(edges) > 1; i++ {
		j := rng.Intn(len(edges))
		dirty = append(dirty, edges[j].From, edges[j].To)
		edges[j] = edges[len(edges)-1]
		edges = edges[:len(edges)-1]
	}
	return graph.FromEdgesDedup(g.NumNodes(), edges), dirty
}

func mustIncremental(t *testing.T, g *graph.Graph, base order.Permutation, opt Options) order.Permutation {
	t.Helper()
	p, err := OrderIncremental(g, base, opt)
	if err != nil {
		t.Fatalf("OrderIncremental: %v", err)
	}
	return p
}

func TestIncrementalPreservesPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randGraph(rng, 40, 150)
	base := Order(g)
	g2 := grow(rng, g, 15)
	p := mustIncremental(t, g2, base, Options{})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 40; u++ {
		if p[u] != base[u] {
			t.Fatalf("old vertex %d moved: %d → %d", u, base[u], p[u])
		}
	}
	// New vertices occupy the suffix positions.
	for u := 40; u < 55; u++ {
		if int(p[u]) < 40 {
			t.Fatalf("new vertex %d placed at prefix position %d", u, p[u])
		}
	}
}

func TestIncrementalEmptyBaseFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randGraph(rng, 30, 100)
	full := Order(g)
	inc := mustIncremental(t, g, order.Permutation{}, Options{})
	for u := range full {
		if full[u] != inc[u] {
			t.Fatal("empty base did not reduce to the full algorithm")
		}
	}
}

func TestIncrementalNoNewVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randGraph(rng, 25, 80)
	base := Order(g)
	p := mustIncremental(t, g, base, Options{})
	for u := range base {
		if p[u] != base[u] {
			t.Fatal("no-op increment changed the permutation")
		}
	}
}

func TestIncrementalRejectsBadInput(t *testing.T) {
	g := graph.FromEdges(3, nil)
	for name, base := range map[string]order.Permutation{
		"too long": {0, 1, 2, 3},
		"invalid":  {0, 0},
	} {
		if _, err := OrderIncremental(g, base, Options{}); err == nil {
			t.Errorf("%s base accepted", name)
		}
	}
	base := order.Permutation{0, 1}
	for name, dirty := range map[string][]graph.NodeID{
		"negative":     {0, graph.NodeID(^uint32(0))},
		"out of range": {3},
	} {
		if _, err := OrderIncrementalCtx(context.Background(), g, base, dirty, Options{}); err == nil {
			t.Errorf("%s dirty vertex accepted", name)
		}
	}
}

func TestIncrementalCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randGraph(rng, 50, 200)
	base := Order(g)
	g2 := grow(rng, g, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if p, err := OrderIncrementalCtx(ctx, g2, base, nil, Options{}); err == nil || p != nil {
		t.Fatalf("canceled context: got perm=%v err=%v, want nil, ctx error", p, err)
	}
}

// Dirty vertices are re-placed; clean vertices keep their relative
// order from the base permutation.
func TestIncrementalDirtyReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := randGraph(rng, 60, 300)
	base := Order(g)
	g2, dirty := churn(rng, g, 30)
	p, err := OrderIncrementalCtx(context.Background(), g2, base, dirty, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	isDirty := make(map[graph.NodeID]bool)
	for _, d := range dirty {
		isDirty[d] = true
	}
	// Clean vertices appear in the same relative order as in base.
	var cleanBase, cleanNew []graph.NodeID
	for _, v := range base.Sequence() {
		if !isDirty[v] {
			cleanBase = append(cleanBase, v)
		}
	}
	for _, v := range p.Sequence() {
		if !isDirty[v] {
			cleanNew = append(cleanNew, v)
		}
	}
	if len(cleanBase) != len(cleanNew) {
		t.Fatalf("clean count changed: %d → %d", len(cleanBase), len(cleanNew))
	}
	for i := range cleanBase {
		if cleanBase[i] != cleanNew[i] {
			t.Fatalf("clean vertex order changed at %d: %d vs %d", i, cleanBase[i], cleanNew[i])
		}
	}
	// Dirty vertices occupy the suffix.
	seq := p.Sequence()
	for _, v := range seq[len(cleanBase):] {
		if !isDirty[v] {
			t.Fatalf("clean vertex %d in the re-placement suffix", v)
		}
	}
}

// The repair move the daemon's quality monitor fires: after several
// growth batches extended one at a time, jointly re-placing everything
// added since the baseline recovers at least the per-batch extension's
// objective, at a fraction of a full recompute's work.
func TestIncrementalRepairSinceBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := gen.BarabasiAlbert(2000, 4, 21)
	perm := Order(g)
	baseN := g.NumNodes()
	w := DefaultWindow
	for batch := 0; batch < 3; batch++ {
		g = grow(rng, g, g.NumNodes()/25)
		var err error
		perm, err = OrderIncrementalCtx(context.Background(), g, perm, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	var dirty []graph.NodeID
	for v := baseN; v < g.NumNodes(); v++ {
		dirty = append(dirty, graph.NodeID(v))
	}
	repaired, err := OrderIncrementalCtx(context.Background(), g, perm, dirty, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := repaired.Validate(); err != nil {
		t.Fatal(err)
	}
	fExt := order.Score(g, perm, w)
	fRep := order.Score(g, repaired, w)
	if fRep < fExt {
		t.Errorf("joint repair F=%d below accumulated extensions F=%d", fRep, fExt)
	}
	fFull := order.Score(g, Order(g), w)
	if float64(fRep) < 0.9*float64(fFull) {
		t.Errorf("repair F=%d under 0.9 of full recompute F=%d", fRep, fFull)
	}
}

// The new suffix is placed greedy-optimally given the frozen prefix:
// each placed new vertex has the maximum windowed score among the
// remaining new vertices.
func TestIncrementalSuffixGreedyOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		k := 15 + rng.Intn(20)
		g := randGraph(rng, k, 3*k)
		base := Order(g)
		extra := 5 + rng.Intn(15)
		g2 := grow(rng, g, extra)
		w := 4
		p := mustIncremental(t, g2, base, Options{Window: w})
		seq := p.Sequence()
		placed := make([]bool, g2.NumNodes())
		for _, v := range seq[:k] {
			placed[v] = true
		}
		for i := k; i < len(seq); i++ {
			lo := i - w
			if lo < 0 {
				lo = 0
			}
			window := seq[lo:i]
			scoreOf := func(u graph.NodeID) int64 {
				var s int64
				for _, x := range window {
					s += order.PairScore(g2, u, x)
				}
				return s
			}
			chosen := scoreOf(seq[i])
			for u := k; u < g2.NumNodes(); u++ {
				if !placed[u] {
					if s := scoreOf(graph.NodeID(u)); s > chosen {
						t.Fatalf("trial %d step %d: placed %d (score %d) over %d (score %d)",
							trial, i, seq[i], chosen, u, s)
					}
				}
			}
			placed[seq[i]] = true
		}
	}
}

// Incremental placement beats appending the new vertices in arbitrary
// order on the objective.
func TestIncrementalBeatsNaiveAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.BarabasiAlbert(300, 4, 8)
	base := Order(g)
	g2 := grow(rng, g, 150)
	w := DefaultWindow
	inc := mustIncremental(t, g2, base, Options{})
	naive := make(order.Permutation, g2.NumNodes())
	copy(naive, base)
	for u := 300; u < g2.NumNodes(); u++ {
		naive[u] = graph.NodeID(u) // append in ID order
	}
	if fi, fn := order.Score(g2, inc, w), order.Score(g2, naive, w); fi <= fn {
		t.Errorf("incremental F=%d not above naive append F=%d", fi, fn)
	}
}

// Property: always a valid permutation preserving the prefix.
func TestQuickIncrementalValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(30)
		g := randGraph(rng, k, rng.Intn(4*k))
		base := Order(g)
		g2 := grow(rng, g, rng.Intn(20))
		p, err := OrderIncremental(g2, base, Options{Window: 1 + rng.Intn(6)})
		if err != nil {
			return false
		}
		if len(p) != g2.NumNodes() || p.Validate() != nil {
			return false
		}
		for u := 0; u < k; u++ {
			if p[u] != base[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// orderIncrementalReference is the per-bump OrderIncrementalCtx the
// batched loop replaced, kept verbatim as the parity oracle: a private
// UnitHeap over the re-placement set R (slots in ascending vertex ID)
// and one Inc or Dec per ±1 score bump.
func orderIncrementalReference(ctx context.Context, g *graph.Graph, base order.Permutation, dirty []graph.NodeID, opt Options) (order.Permutation, error) {
	n := g.NumNodes()
	k := len(base)
	if k > n {
		return nil, fmt.Errorf("core: base permutation covers %d vertices but graph has %d", k, n)
	}
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid base permutation: %w", err)
	}
	for _, d := range dirty {
		if int(d) < 0 || int(d) >= n {
			return nil, fmt.Errorf("core: dirty vertex %d out of range [0, %d)", d, n)
		}
	}
	if k == 0 {
		return OrderWithCtx(ctx, g, opt)
	}
	w := opt.Window
	if w <= 0 {
		w = DefaultWindow
	}

	// The re-placement set R: dirty old vertices plus every new vertex.
	// mark[v] for old vertices only; new vertices are implicit.
	mark := make([]bool, k)
	for _, d := range dirty {
		if int(d) < k {
			mark[d] = true
		}
	}

	// seq starts as the compacted clean prefix: base order with the
	// dirty vertices' slots squeezed out.
	seq := make([]graph.NodeID, 0, n)
	for _, v := range base.Sequence() {
		if !mark[v] {
			seq = append(seq, v)
		}
	}
	frozen := len(seq)
	if frozen == n {
		return order.FromSequence(seq), ctx.Err()
	}

	// R in ascending vertex ID — the deterministic slot order the unit
	// heap breaks ties by.
	slot := make([]int32, n)
	for i := range slot {
		slot[i] = -1
	}
	r := make([]graph.NodeID, 0, n-frozen)
	for v := 0; v < n; v++ {
		if v >= k || mark[v] {
			slot[v] = int32(len(r))
			r = append(r, graph.NodeID(v))
		}
	}

	q := NewUnitHeap(len(r))
	apply := func(v graph.NodeID, delta int) {
		bump := func(u graph.NodeID) {
			if s := slot[u]; s >= 0 && q.Contains(int(s)) {
				if delta > 0 {
					q.Inc(int(s))
				} else {
					q.Dec(int(s))
				}
			}
		}
		for _, u := range g.OutNeighbors(v) {
			bump(u)
		}
		for _, x := range g.InNeighbors(v) {
			bump(x)
			if opt.HubThreshold > 0 && g.OutDegree(x) > opt.HubThreshold {
				continue
			}
			for _, u := range g.OutNeighbors(x) {
				if u != v {
					bump(u)
				}
			}
		}
	}
	// Prime the window with the tail of the frozen prefix.
	lo := frozen - w
	if lo < 0 {
		lo = 0
	}
	for _, v := range seq[lo:frozen] {
		apply(v, +1)
	}
	seq = seq[:n]
	for i := frozen; i < n; i++ {
		if (i-frozen)%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if i > frozen {
			apply(seq[i-1], +1)
			if i-1-w >= 0 {
				apply(seq[i-1-w], -1)
			}
		}
		v, _, ok := q.ExtractMax()
		if !ok {
			break
		}
		seq[i] = r[v]
	}
	return order.FromSequence(seq), nil
}

// TestIncrementalMatchesReference holds OrderIncrementalCtx, which now
// extends the clean prefix with the production batched loop, to the
// per-bump oracle bit for bit: random bases and dirty sets over the
// window sweep and the hub ablation, plus an empty clean prefix (every
// base vertex dirty), a prefix shorter than the window, and a repair
// with nothing to re-place (frozen == n).
func TestIncrementalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	graphs := []*graph.Graph{
		gen.Web(400, gen.DefaultWeb, 7),
		gen.BarabasiAlbert(300, 5, 11),
		gen.SBM(350, 5, 8, 2, 3),
	}
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(120)
		graphs = append(graphs, randGraph(rng, n, rng.Intn(6*n)))
	}
	// randomBase returns a random valid permutation of 0..k-1.
	randomBase := func(k int) order.Permutation {
		p := make(order.Permutation, k)
		for i, j := range rng.Perm(k) {
			p[i] = graph.NodeID(j)
		}
		return p
	}
	for gi, g := range graphs {
		n := g.NumNodes()
		for _, w := range []int{1, 2, 5, 8, 16} {
			for _, hub := range []int{0, 4} {
				opt := Options{Window: w, HubThreshold: hub}
				k := 1 + rng.Intn(n)
				var dirty []graph.NodeID
				for d := rng.Intn(k/2 + 1); d > 0; d-- {
					dirty = append(dirty, graph.NodeID(rng.Intn(n)))
				}
				all := make([]graph.NodeID, k)
				for v := range all {
					all[v] = graph.NodeID(v)
				}
				short := min(n, 2)
				cases := []struct {
					name  string
					base  order.Permutation
					dirty []graph.NodeID
				}{
					{"random", randomBase(k), dirty},
					{"empty-prefix", randomBase(k), all},
					{"short-prefix", randomBase(short), nil},
					{"frozen-all", randomBase(n), nil},
				}
				for _, c := range cases {
					name := fmt.Sprintf("g%d/w=%d/hub=%d/%s", gi, w, hub, c.name)
					want, werr := orderIncrementalReference(context.Background(), g, c.base, c.dirty, opt)
					got, gerr := OrderIncrementalCtx(context.Background(), g, c.base, c.dirty, opt)
					if werr != nil || gerr != nil {
						t.Fatalf("%s: errors %v / reference %v", name, gerr, werr)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: length %d vs reference %d", name, len(got), len(want))
					}
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("%s: permutation diverges from reference at vertex %d: %d vs %d",
								name, v, got[v], want[v])
						}
					}
				}
			}
		}
	}
}
