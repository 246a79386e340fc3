package graph

import "fmt"

// Stats summarises a graph the way the paper's Table 1 reports its
// datasets: size plus the degree-distribution features (skew, maxima)
// that drive cache behaviour.
type Stats struct {
	Nodes        int
	Edges        int64
	MaxOutDegree int
	MaxInDegree  int
	AvgDegree    float64 // average out-degree, m/n
	SelfLoops    int64
	Isolated     int // vertices with no in- or out-edges
}

// ComputeStats scans g once and returns its Stats.
func ComputeStats(g *Graph) Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	if s.Nodes > 0 {
		s.AvgDegree = float64(s.Edges) / float64(s.Nodes)
	}
	for u := 0; u < g.NumNodes(); u++ {
		id := NodeID(u)
		od, ind := g.OutDegree(id), g.InDegree(id)
		if od > s.MaxOutDegree {
			s.MaxOutDegree = od
		}
		if ind > s.MaxInDegree {
			s.MaxInDegree = ind
		}
		if od == 0 && ind == 0 {
			s.Isolated++
		}
		for _, v := range g.OutNeighbors(id) {
			if v == id {
				s.SelfLoops++
			}
		}
	}
	return s
}

// String renders the stats in one line, convenient for CLI output.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d m=%d avg_deg=%.2f max_out=%d max_in=%d self_loops=%d isolated=%d",
		s.Nodes, s.Edges, s.AvgDegree, s.MaxOutDegree, s.MaxInDegree, s.SelfLoops, s.Isolated)
}
