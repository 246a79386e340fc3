// Package cli holds the format-sniffing graph loader shared by the
// command-line tools, so the cmd/ mains stay thin and the sniffing is
// unit-tested. Ordering dispatch is internal/registry's; the tools
// call it directly.
package cli

import (
	"os"

	"gorder/internal/graph"
)

// ReadGraph loads a graph from path, accepting both the binary CSR
// format and text edge lists (sniffed in that order). "-" reads a
// text edge list from stdin. The whole file is read up front so the
// parallel loaders can chunk it in place.
func ReadGraph(path string) (*graph.Graph, error) {
	if path == "-" {
		return graph.ReadEdgeList(os.Stdin)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadGraphBytes(data)
}

// ReadGraphBytes sniffs the format of an in-memory graph file: binary
// first (by magic), then text edge list, so the file loaders get the
// parallel ingest pipeline without an io.Reader round trip.
func ReadGraphBytes(data []byte) (*graph.Graph, error) {
	if g, err := graph.ReadBinaryBytes(data); err == nil {
		return g, nil
	}
	return graph.ReadEdgeListBytes(data)
}
