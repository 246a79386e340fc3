// Package order defines the vertex-ordering framework: the Permutation
// type every ordering method produces, the cost metrics orderings
// optimise (MinLA/MinLogA energy, bandwidth, the Gorder score F), and
// all the baseline ordering methods the paper compares Gorder against:
// Original, Random, MinLA, MinLogA, RCM, InDegSort, ChDFS, SlashBurn
// (simplified) and LDG. Gorder itself lives in gorder/internal/core.
//
// Metis is deliberately absent: both the original paper (on its large
// datasets) and the replication drop it because its memory use does
// not scale; see DESIGN.md §2.
package order

import (
	"fmt"

	"gorder/internal/graph"
)

// Permutation maps old vertex IDs to new ones: perm[u] is the new ID
// of vertex u. Applying it to a graph is graph.Relabel(perm).
type Permutation []graph.NodeID

// Identity returns the identity permutation on n vertices — the
// "Original" ordering of the paper.
func Identity(n int) Permutation {
	p := make(Permutation, n)
	for i := range p {
		p[i] = graph.NodeID(i)
	}
	return p
}

// Validate returns an error unless p is a permutation of 0..len(p)-1.
func (p Permutation) Validate() error {
	seen := make([]uint64, (len(p)+63)/64) // one bit per value
	for u, v := range p {
		if int(v) >= len(p) {
			return fmt.Errorf("order: perm[%d] = %d out of range", u, v)
		}
		if seen[v/64]&(1<<(v%64)) != 0 {
			return fmt.Errorf("order: value %d assigned twice", v)
		}
		seen[v/64] |= 1 << (v % 64)
	}
	return nil
}

// Inverse returns q with q[p[u]] = u: the map from new IDs back to
// old ones.
func (p Permutation) Inverse() Permutation {
	q := make(Permutation, len(p))
	for u, v := range p {
		q[v] = graph.NodeID(u)
	}
	return q
}

// FromSequence builds the permutation that places seq[i] at position
// i: perm[seq[i]] = i. seq must contain each vertex exactly once.
// Ordering algorithms naturally produce visit sequences; this converts
// them.
func FromSequence(seq []graph.NodeID) Permutation {
	p := make(Permutation, len(seq))
	for i := range p {
		p[i] = graph.NodeID(len(seq)) // sentinel: unassigned
	}
	for pos, u := range seq {
		if int(u) >= len(seq) || p[u] != graph.NodeID(len(seq)) {
			panic("order: sequence is not a permutation of vertices")
		}
		p[u] = graph.NodeID(pos)
	}
	return p
}

// Sequence is the inverse of FromSequence: seq[i] is the vertex placed
// at position i.
func (p Permutation) Sequence() []graph.NodeID {
	return []graph.NodeID(p.Inverse())
}
