package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"

	"gorder/internal/algos"
	"gorder/internal/graph"
	"gorder/internal/order"
	"gorder/internal/registry"
)

// checker counts answers checked against in-process oracles computed
// on the natural graph, and the ones that disagree.
type checker struct {
	checked, wrong int
}

func (c *checker) fail(format string, args ...any) {
	c.wrong++
	if c.wrong <= 5 {
		fmt.Fprintf(os.Stderr, "wrong answer: "+format+"\n", args...)
	}
}

// traversal checks a BFS or SP answer: both are hop distances, so BFS
// on the natural graph is the oracle for either.
func (c *checker) traversal(g *graph.Graph, o op, a *queryAnswer) {
	c.checked++
	dist, reached := algos.BFSFrom(g, graph.NodeID(o.source))
	var ecc int32
	for _, d := range dist {
		ecc = max(ecc, d)
	}
	if a.Summary["reached"] != float64(reached) || a.Summary["ecc"] != float64(ecc) {
		c.fail("%s from %d: summary %v, oracle reached=%d ecc=%d", o.kernel, o.source, a.Summary, reached, ecc)
		return
	}
	if len(a.Values) != len(o.targets) {
		c.fail("%s from %d: %d values for %d targets", o.kernel, o.source, len(a.Values), len(o.targets))
		return
	}
	for i, t := range o.targets {
		if a.Values[i].Node != t || a.Values[i].Value != float64(dist[t]) {
			c.fail("%s from %d: value %v at target %d, oracle %d", o.kernel, o.source, a.Values[i], t, dist[t])
			return
		}
	}
}

// pageRank checks a PR answer's summary. The daemon runs PR over the
// gorder relabeling, which sums in another order, so the floats agree
// to a relative 1e-9, not bit for bit.
func (c *checker) pageRank(oracle []float64, a *queryAnswer) {
	c.checked++
	var sum, mx float64
	for _, r := range oracle {
		sum += r
		mx = max(mx, r)
	}
	if !near(a.Summary["sum"], sum) || !near(a.Summary["max"], mx) {
		c.fail("PR: summary %v, oracle sum=%v max=%v", a.Summary, sum, mx)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

func pageRankOracle(g *graph.Graph) []float64 {
	return algos.PageRank(g, algos.DefaultPageRankIters, algos.DefaultDamping)
}

// checkQueries checks at least minSample of the successful BFS and SP
// answers, evenly spaced, and every PR answer, each against the graph
// version that served it. Versions are rebuilt locally by applying
// the successful edits, in the order the daemon numbered them, to the
// base graph. It returns the final version.
func (c *checker) checkQueries(base *graph.Graph, baseDigest string, ops []op, res []result, minSample int) *graph.Graph {
	type edit struct {
		version int
		digest  string
		edge    graph.Edge
	}
	var edits []edit
	traversals := 0
	for i, r := range res {
		switch {
		case !r.ok():
		case r.edit != nil:
			edits = append(edits, edit{r.edit.Graph.Version, r.edit.Graph.ID, ops[i].edge})
		case ops[i].kernel != "PR":
			traversals++
		}
	}
	slices.SortFunc(edits, func(a, b edit) int { return a.version - b.version })
	stride := max(1, traversals/minSample)
	byDigest := map[string][]int{}
	k := 0
	for i, r := range res {
		if !r.ok() || r.query == nil {
			continue
		}
		if ops[i].kernel != "PR" {
			k++
			if (k-1)%stride != 0 {
				continue
			}
		}
		byDigest[r.query.Graph] = append(byDigest[r.query.Graph], i)
	}

	cur, digest := base, baseDigest
	for v := 0; ; v++ {
		var pr []float64
		for _, i := range byDigest[digest] {
			if ops[i].kernel == "PR" {
				if pr == nil {
					pr = pageRankOracle(cur)
				}
				c.pageRank(pr, res[i].query)
			} else {
				c.traversal(cur, ops[i], res[i].query)
			}
		}
		delete(byDigest, digest)
		if v == len(edits) {
			break
		}
		next, _, err := graph.ApplyEdits(cur, 0, []graph.Edge{edits[v].edge}, nil)
		if err != nil {
			c.fail("applying edit %v locally: %v", edits[v].edge, err)
			break
		}
		cur, digest = next, edits[v].digest
	}
	for d, idx := range byDigest {
		c.checked += len(idx)
		c.fail("%d answers name graph %s, which no edit produced", len(idx), d)
	}
	return cur
}

// finalVersion checks the daemon's tip of graphName against the
// locally edited graph: its edge count, and one BFS answer.
func (c *checker) finalVersion(cl *client, graphName string, local *graph.Graph) error {
	var info graphInfo
	status, err := cl.get("/graphs/"+graphName, &info)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /graphs/%s: status %d", graphName, status)
	}
	if err != nil {
		return err
	}
	c.checked++
	if info.Edges != local.NumEdges() {
		c.fail("final version has %d edges, local edits give %d", info.Edges, local.NumEdges())
	}
	o := op{kernel: "BFS", source: int(registry.HubSource(local)), targets: []int{0, local.NumNodes() / 2, local.NumNodes() - 1}}
	r := send(cl, graphName, o)
	if !r.ok() {
		return fmt.Errorf("final BFS: status %d: %v", r.status, r.err)
	}
	c.traversal(local, o, r.query)
	return nil
}

// permutation checks that the daemon's gorder permutation of g is
// bit-identical to one computed in-process.
func (c *checker) permutation(cl *client, jobID string, g *graph.Graph) error {
	resp, err := cl.hc.Get(cl.base + "/jobs/" + jobID + "/permutation")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET permutation of %s: status %d", jobID, resp.StatusCode)
	}
	got, err := order.ReadPermutation(resp.Body)
	if err != nil {
		return fmt.Errorf("reading permutation of %s: %w", jobID, err)
	}
	want, err := registry.Compute(context.Background(), g, "gorder", registry.Options{})
	if err != nil {
		return err
	}
	c.checked++
	if !slices.Equal(got, want) {
		c.fail("job %s: gorder permutation differs from the in-process one", jobID)
	}
	return nil
}
