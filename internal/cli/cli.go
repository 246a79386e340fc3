// Package cli holds the logic shared by the command-line tools:
// format-sniffing graph loading and a thin adapter from flag-level
// ordering specs to the registry. It exists so the cmd/ mains stay
// thin and this logic is unit-tested. All ordering dispatch lives in
// internal/registry; this package only translates an OrderingSpec
// into registry.Options.
package cli

import (
	"context"
	"io"
	"os"

	"gorder/internal/graph"
	"gorder/internal/order"
	"gorder/internal/registry"
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

// ReadGraphFrom sniffs the format of a seekable stream: binary first,
// then text edge list.
func ReadGraphFrom(f io.ReadSeeker) (*graph.Graph, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	return ReadGraphBytes(data)
}

// OrderingSpec configures ComputeOrdering. It is the flag/JSON-level
// view of registry.Options plus the method name.
type OrderingSpec struct {
	Method     string // case-insensitive ordering name
	Window     int    // gorder window (0 = default)
	Hub        int    // gorder hub-skip threshold (0 = exact)
	Seed       uint64 // seed for stochastic methods
	LDGBins    int    // LDG bin count (0 = registry.DefaultLDGBins)
	Workers    int    // parallel-method worker bound (0 = GOMAXPROCS)
	Partitions int    // gorder-partitioned partition count (0 = default)
}

// options translates the spec into registry options.
func (s OrderingSpec) options() registry.Options {
	return registry.Options{
		Window:       s.Window,
		HubThreshold: s.Hub,
		Seed:         s.Seed,
		LDGBins:      s.LDGBins,
		Workers:      s.Workers,
		Partitions:   s.Partitions,
	}
}

// MethodNames returns the accepted ordering names, sorted. It is the
// registry catalog verbatim.
func MethodNames() []string {
	return registry.MethodNames()
}

// ComputeOrdering dispatches an ordering by name via the registry.
func ComputeOrdering(g *graph.Graph, spec OrderingSpec) (order.Permutation, error) {
	return registry.Compute(context.Background(), g, spec.Method, spec.options())
}
