package order

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"gorder/internal/gen"
	"gorder/internal/graph"
)

func TestQuickParallelOrderingsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		g := randGraph(rng, n, rng.Intn(4*n))
		for _, p := range []Permutation{BOBA(g), HubCluster(g)} {
			if len(p) != n || p.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// BOBA's defining property: vertex u precedes v whenever u's first
// appearance as a destination in the CSR stream precedes v's, and
// never-destination vertices trail in ID order.
func TestBOBAFirstAppearanceOrder(t *testing.T) {
	g := gen.BarabasiAlbert(800, 4, 13)
	p := BOBA(g)
	adj := g.OutAdjacency()
	first := make(map[graph.NodeID]int)
	for i, v := range adj {
		if _, ok := first[v]; !ok {
			first[v] = i
		}
	}
	seq := p.Sequence()
	prevFirst := -1
	i := 0
	for ; i < len(seq); i++ {
		f, ok := first[seq[i]]
		if !ok {
			break // start of the zero-in-degree tail
		}
		if f < prevFirst {
			t.Fatalf("position %d: first-appearance %d after %d", i, f, prevFirst)
		}
		prevFirst = f
	}
	prevID := graph.NodeID(0)
	for ; i < len(seq); i++ {
		if _, ok := first[seq[i]]; ok {
			t.Fatalf("destination vertex %d in the zero-in-degree tail", seq[i])
		}
		if seq[i] < prevID {
			t.Fatalf("zero-in-degree tail not in ID order at position %d", i)
		}
		prevID = seq[i]
	}
}

// HubCluster keeps both blocks in original relative order and places
// every hot vertex before every cold one.
func TestHubClusterBlocks(t *testing.T) {
	g := gen.BarabasiAlbert(1200, 5, 17)
	p := HubCluster(g)
	avg := float64(g.NumEdges()) / float64(g.NumNodes())
	hotOf := func(v graph.NodeID) bool { return float64(g.InDegree(v)) > avg }
	seq := p.Sequence()
	seenCold := false
	var prevHot, prevCold graph.NodeID
	haveHot, haveCold := false, false
	for i, v := range seq {
		if hotOf(v) {
			if seenCold {
				t.Fatalf("hot vertex %d at position %d after a cold vertex", v, i)
			}
			if haveHot && v < prevHot {
				t.Fatalf("hot block out of ID order at position %d", i)
			}
			prevHot, haveHot = v, true
		} else {
			seenCold = true
			if haveCold && v < prevCold {
				t.Fatalf("cold block out of ID order at position %d", i)
			}
			prevCold, haveCold = v, true
		}
	}
}

// The worker count is pure scheduling: every parallel ordering must be
// bit-identical at any worker count, including the serial path.
func TestParallelOrderingsDeterministic(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"web":  gen.Web(400, gen.DefaultWeb, 7),
		"ba":   gen.BarabasiAlbert(300, 5, 11),
		"sbm":  gen.SBM(350, 5, 8, 2, 3),
		"ring": gen.Ring(100),
	}
	type method struct {
		name string
		run  func(ctx context.Context, g *graph.Graph, workers int) (Permutation, error)
	}
	methods := []method{
		{"boba", BOBACtx},
		{"hubsort", HubSortCtx},
		{"hubcluster", HubClusterCtx},
		{"dbg", DBGCtx},
	}
	ctx := context.Background()
	for gname, g := range graphs {
		for _, m := range methods {
			base, err := m.run(ctx, g, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := base.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", m.name, gname, err)
			}
			for _, workers := range []int{2, 3, 8, 0} {
				p, err := m.run(ctx, g, workers)
				if err != nil {
					t.Fatal(err)
				}
				for u := range base {
					if base[u] != p[u] {
						t.Fatalf("%s/%s: workers=%d diverges from workers=1 at vertex %d",
							m.name, gname, workers, u)
					}
				}
			}
		}
	}
}

// The parallel implementations must match their original serial
// counterparts bit for bit.
func TestParallelMatchesSerialHubOrderings(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 5, 3)
	hs, err := HubSortCtx(context.Background(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := HubSort(g)
	for u := range want {
		if want[u] != hs[u] {
			t.Fatalf("HubSortCtx diverges from HubSort at vertex %d", u)
		}
	}
	db, err := DBGCtx(context.Background(), g, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantD := DBG(g)
	for u := range wantD {
		if wantD[u] != db[u] {
			t.Fatalf("DBGCtx diverges from DBG at vertex %d", u)
		}
	}
}

func TestParallelOrderingsCanceled(t *testing.T) {
	g := gen.BarabasiAlbert(3000, 6, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func(context.Context, *graph.Graph, int) (Permutation, error){
		"boba": BOBACtx, "hubsort": HubSortCtx, "hubcluster": HubClusterCtx, "dbg": DBGCtx,
	} {
		p, err := run(ctx, g, 4)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if p != nil {
			t.Errorf("%s: canceled run returned a permutation", name)
		}
	}
}

func TestParallelOrderingsDeadline(t *testing.T) {
	// Already-expired deadline: the first ctx poll must abort the run.
	g := gen.BarabasiAlbert(3000, 6, 15)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := BOBACtx(ctx, g, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("BOBACtx: err = %v, want context.DeadlineExceeded", err)
	}
	if _, err := DBGCtx(ctx, g, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("DBGCtx: err = %v, want context.DeadlineExceeded", err)
	}
}
