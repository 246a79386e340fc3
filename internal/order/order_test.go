package order

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gorder/internal/graph"
)

func TestIdentity(t *testing.T) {
	p := Identity(5)
	for i, v := range p {
		if int(v) != i {
			t.Fatalf("Identity[%d] = %d", i, v)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	if err := (Permutation{1, 0, 2}).Validate(); err != nil {
		t.Errorf("valid permutation rejected: %v", err)
	}
	if err := (Permutation{0, 0, 2}).Validate(); err == nil {
		t.Error("duplicate accepted")
	}
	if err := (Permutation{0, 3, 1}).Validate(); err == nil {
		t.Error("out-of-range accepted")
	}
}

func TestInverse(t *testing.T) {
	p := Permutation{2, 0, 1}
	q := p.Inverse()
	want := Permutation{1, 2, 0}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("Inverse = %v, want %v", q, want)
		}
	}
}

func TestFromSequenceRoundTrip(t *testing.T) {
	seq := []graph.NodeID{3, 1, 0, 2}
	p := FromSequence(seq)
	got := p.Sequence()
	for i := range seq {
		if got[i] != seq[i] {
			t.Fatalf("Sequence = %v, want %v", got, seq)
		}
	}
	if p[3] != 0 || p[2] != 3 {
		t.Fatalf("FromSequence = %v", p)
	}
}

func TestFromSequencePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on repeated vertex")
		}
	}()
	FromSequence([]graph.NodeID{0, 0, 1})
}

// Inverse laws, checked on random permutations.
func TestQuickPermutationLaws(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		p := Permutation(randPerm(rng, n))
		inv := p.Inverse()
		// p ∘ p⁻¹ = id and p⁻¹ ∘ p = id.
		for u := range p {
			if int(inv[p[u]]) != u || int(p[inv[u]]) != u {
				return false
			}
		}
		return p.Validate() == nil && inv.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randPerm(rng *rand.Rand, n int) []graph.NodeID {
	p := make([]graph.NodeID, n)
	for i := range p {
		p[i] = graph.NodeID(i)
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func randGraph(rng *rand.Rand, n, m int) *graph.Graph {
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{From: graph.NodeID(rng.Intn(n)), To: graph.NodeID(rng.Intn(n))}
	}
	return graph.FromEdgesDedup(n, edges)
}
