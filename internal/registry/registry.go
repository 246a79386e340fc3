// Package registry is the single source of truth for the vertex
// orderings and benchmark kernels the repo exposes. Every consumer —
// the cmd/ tools, the experiment harness in internal/bench, the
// gorderd service in internal/server, and the public facade —
// resolves names through the catalogs here, so adding
// an ordering or a kernel is one descriptor in one file and every
// execution path (including cancellation and instrumentation) picks it
// up for free.
//
// The ordering catalog is alphabetised and enumerable; lookups are
// case-insensitive over canonical names and aliases. Each descriptor
// carries capability metadata (stochastic, cancellable, cost class) so
// services can advertise what a method will do before running it, and
// every computation funnels through one instrumented code path
// (ComputeObserved) that reports wall time and cancellation outcome.
package registry

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"gorder/internal/core"
	"gorder/internal/graph"
	"gorder/internal/order"
)

// GorderName is the canonical name of the paper's contribution, the
// ordering every relative-runtime figure normalises against.
const GorderName = "Gorder"

// DefaultLDGBins is the LDG bin capacity both papers use: 64, so one
// bin matches a cache line of 4-byte entries.
const DefaultLDGBins = 64

// Options is the unified parameter set every ordering draws from.
// Each method reads only the fields it understands; zero values select
// the documented defaults, so the zero Options is always valid.
type Options struct {
	// Window is the Gorder window size w (0 = core.DefaultWindow).
	Window int
	// HubThreshold is the Gorder hub-skip threshold (0 = exact scores
	// for Gorder; for Gorder-Partitioned, 0 = the partitioned default
	// and negative forces exact scores).
	HubThreshold int
	// Seed drives the stochastic methods (Random, MinLA, MinLogA).
	Seed uint64
	// LDGBins is the LDG bin capacity (0 = DefaultLDGBins).
	LDGBins int
	// Workers bounds the goroutines of the parallel methods (BOBA,
	// DBG, HubSort, HubCluster, Gorder-Partitioned); <= 0 selects
	// GOMAXPROCS. Pure scheduling: it never changes the permutation,
	// so CanonicalOptions drops it and artifact caches ignore it.
	Workers int
	// Partitions is the Gorder-Partitioned partition count
	// (0 = core.DefaultPartitions). Unlike Workers it is part of the
	// result and therefore of the cache key.
	Partitions int
}

func (o Options) ldgBins() int {
	if o.LDGBins <= 0 {
		return DefaultLDGBins
	}
	return o.LDGBins
}

func (o Options) partitions() int {
	if o.Partitions <= 0 {
		return core.DefaultPartitions
	}
	return o.Partitions
}

func (o Options) gorder() core.Options {
	return core.Options{Window: o.Window, HubThreshold: o.HubThreshold}
}

// OptionField names one Options field in an Ordering's Consumes list.
type OptionField string

// The Options fields a method can consume.
const (
	OptWindow     OptionField = "window"
	OptHub        OptionField = "hub"
	OptSeed       OptionField = "seed"
	OptLDGBins    OptionField = "ldg_bins"
	OptWorkers    OptionField = "workers"
	OptPartitions OptionField = "partitions"
)

// CanonicalOptions normalizes o for the named ordering: fields the
// method does not consume are zeroed, and consumed fields left at
// their zero value are replaced by the documented default. Every
// spelling of the same effective parameters therefore maps to one
// Options value — the property artifact caches key on.
//
// OptWorkers is special: the parallel methods consume it for
// scheduling, but every worker count produces the bit-identical
// permutation (pinned by their determinism tests), so the canonical
// form always carries Workers == 0 and cached artifacts are shared
// across worker spellings.
func CanonicalOptions(name string, o Options) (Options, error) {
	desc, ok := Lookup(name)
	if !ok {
		return Options{}, fmt.Errorf("unknown ordering %q (known: %s)",
			name, strings.Join(MethodNames(), " "))
	}
	var c Options
	for _, f := range desc.Consumes {
		switch f {
		case OptWindow:
			c.Window = o.Window
			if c.Window <= 0 {
				c.Window = core.DefaultWindow
			}
		case OptHub:
			c.HubThreshold = o.HubThreshold
		case OptSeed:
			c.Seed = o.Seed
		case OptLDGBins:
			c.LDGBins = o.ldgBins()
		case OptWorkers:
			// Scheduling only — canonically zero; see above.
		case OptPartitions:
			c.Partitions = o.partitions()
		}
	}
	return c, nil
}

// OptionsKey returns the canonical options plus a short stable digest
// of (canonical method, canonical options) — the cache key suffix
// internal/store names ordering artifacts with. Two requests share a
// key exactly when the registry would compute the same permutation
// for them (modulo stochastic methods, whose seed is part of the key).
func OptionsKey(name string, o Options) (Options, string, error) {
	c, err := CanonicalOptions(name, o)
	if err != nil {
		return Options{}, "", err
	}
	desc, _ := Lookup(name)
	// Workers is intentionally absent: it never changes the permutation.
	enc := fmt.Sprintf("%s|w=%d|h=%d|s=%d|b=%d|p=%d",
		strings.ToLower(desc.Name), c.Window, c.HubThreshold, c.Seed, c.LDGBins, c.Partitions)
	sum := sha256.Sum256([]byte(enc))
	return c, hex.EncodeToString(sum[:4]), nil
}

// CostClass is the coarse cost label of an ordering, so callers can
// pick deadlines (and users can pick methods) without benchmarking.
type CostClass string

const (
	// CostTrivial orderings are O(n) with tiny constants (Original, Random).
	CostTrivial CostClass = "trivial"
	// CostCheap orderings are one pass over the edges (degree sorts, traversals).
	CostCheap CostClass = "cheap"
	// CostModerate orderings do a few passes or keep per-bin state.
	CostModerate CostClass = "moderate"
	// CostExpensive orderings run an optimisation loop that dominates
	// every kernel's runtime (Gorder, simulated annealing).
	CostExpensive CostClass = "expensive"
)

// ComputeFunc computes a permutation of g under opt, honouring ctx as
// far as the method's Cancellable flag promises.
type ComputeFunc func(ctx context.Context, g *graph.Graph, opt Options) (order.Permutation, error)

// Ordering describes one catalog entry: the canonical (display) name,
// accepted aliases, capability metadata, and the computation itself.
type Ordering struct {
	// Name is the canonical display name ("Gorder", "MinLA", ...).
	// The lowercase form is the CLI/API spelling; lookups accept any case.
	Name string
	// Aliases are additional accepted lookup names (lowercase).
	Aliases []string
	// Stochastic methods consume Options.Seed; deterministic ones ignore it.
	Stochastic bool
	// Cancellable methods check ctx inside their main loop and return
	// promptly once it is done. Non-cancellable methods only refuse to
	// start on an already-done context.
	Cancellable bool
	// Cost is the coarse cost class.
	Cost CostClass
	// Consumes lists the Options fields the method actually reads.
	// CanonicalOptions zeroes everything else, so artifact caches do
	// not split on parameters the method ignores. Stochastic methods
	// must list OptSeed (the catalog test enforces this).
	Consumes []OptionField
	// Compute runs the method. Use the package-level Compute /
	// ComputeObserved to get instrumentation and name resolution.
	Compute ComputeFunc
}

// startChecked wraps a method that cannot be interrupted: the context
// is consulted once, before any work starts, so a deadline still
// bounds queue-to-start latency.
func startChecked(f func(g *graph.Graph, opt Options) order.Permutation) ComputeFunc {
	return func(ctx context.Context, g *graph.Graph, opt Options) (order.Permutation, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return f(g, opt), nil
	}
}

// orderings is the catalog, alphabetised by case-insensitive name.
// THIS IS THE ONLY ORDERING-DISPATCH SITE IN THE REPOSITORY: every
// name-to-implementation decision happens by lookup into this slice.
var orderings = []Ordering{
	{
		Name: "BOBA", Cancellable: true, Cost: CostCheap,
		Consumes: []OptionField{OptWorkers},
		Compute: func(ctx context.Context, g *graph.Graph, opt Options) (order.Permutation, error) {
			return order.BOBACtx(ctx, g, opt.Workers)
		},
	},
	{
		Name: "ChDFS", Cost: CostCheap,
		Compute: startChecked(func(g *graph.Graph, _ Options) order.Permutation {
			return order.ChDFS(g)
		}),
	},
	{
		Name: "DBG", Cancellable: true, Cost: CostCheap,
		Consumes: []OptionField{OptWorkers},
		Compute: func(ctx context.Context, g *graph.Graph, opt Options) (order.Permutation, error) {
			return order.DBGCtx(ctx, g, opt.Workers)
		},
	},
	{
		Name: GorderName, Cancellable: true, Cost: CostExpensive,
		Consumes: []OptionField{OptWindow, OptHub},
		Compute: func(ctx context.Context, g *graph.Graph, opt Options) (order.Permutation, error) {
			return core.OrderWithCtx(ctx, g, opt.gorder())
		},
	},
	{
		// The partition-parallel Gorder; "gorder-parallel" survives as
		// an alias from when the chunk-parallel variant was a separate
		// catalog entry.
		Name: "Gorder-Partitioned", Aliases: []string{"gorder-parallel"},
		Cancellable: true, Cost: CostExpensive,
		Consumes: []OptionField{OptWindow, OptHub, OptWorkers, OptPartitions},
		Compute: func(ctx context.Context, g *graph.Graph, opt Options) (order.Permutation, error) {
			return core.OrderPartitionedCtx(ctx, g, opt.gorder(), core.PartitionedOptions{
				Workers:    opt.Workers,
				Partitions: opt.partitions(),
			})
		},
	},
	{
		Name: "HubCluster", Cancellable: true, Cost: CostCheap,
		Consumes: []OptionField{OptWorkers},
		Compute: func(ctx context.Context, g *graph.Graph, opt Options) (order.Permutation, error) {
			return order.HubClusterCtx(ctx, g, opt.Workers)
		},
	},
	{
		Name: "HubSort", Cancellable: true, Cost: CostCheap,
		Consumes: []OptionField{OptWorkers},
		Compute: func(ctx context.Context, g *graph.Graph, opt Options) (order.Permutation, error) {
			return order.HubSortCtx(ctx, g, opt.Workers)
		},
	},
	{
		Name: "InDegSort", Cost: CostCheap,
		Compute: startChecked(func(g *graph.Graph, _ Options) order.Permutation {
			return order.InDegSort(g)
		}),
	},
	{
		Name: "LDG", Cost: CostModerate, Consumes: []OptionField{OptLDGBins},
		Compute: startChecked(func(g *graph.Graph, opt Options) order.Permutation {
			return order.LDG(g, opt.ldgBins())
		}),
	},
	{
		Name: "MinLA", Stochastic: true, Cancellable: true, Cost: CostExpensive,
		Consumes: []OptionField{OptSeed},
		Compute: func(ctx context.Context, g *graph.Graph, opt Options) (order.Permutation, error) {
			return order.MinLACtx(ctx, g, order.AnnealOptions{Seed: opt.Seed})
		},
	},
	{
		Name: "MinLogA", Stochastic: true, Cancellable: true, Cost: CostExpensive,
		Consumes: []OptionField{OptSeed},
		Compute: func(ctx context.Context, g *graph.Graph, opt Options) (order.Permutation, error) {
			return order.MinLogACtx(ctx, g, order.AnnealOptions{Seed: opt.Seed})
		},
	},
	{
		Name: "Multilevel", Cancellable: true, Cost: CostModerate,
		Consumes: []OptionField{OptWindow, OptHub},
		Compute: func(ctx context.Context, g *graph.Graph, opt Options) (order.Permutation, error) {
			var coarseErr error
			p := order.Multilevel(g, order.MultilevelOptions{
				OrderCoarse: func(cg *graph.Graph) order.Permutation {
					cp, err := core.OrderWithCtx(ctx, cg, opt.gorder())
					if err != nil {
						coarseErr = err
						return order.Identity(cg.NumNodes())
					}
					return cp
				},
			})
			if coarseErr != nil {
				return nil, coarseErr
			}
			return p, nil
		},
	},
	{
		Name: "Original", Aliases: []string{"identity"}, Cost: CostTrivial,
		Compute: startChecked(func(g *graph.Graph, _ Options) order.Permutation {
			return order.Identity(g.NumNodes())
		}),
	},
	{
		Name: "Random", Stochastic: true, Cost: CostTrivial, Consumes: []OptionField{OptSeed},
		Compute: startChecked(func(g *graph.Graph, opt Options) order.Permutation {
			return order.Random(g.NumNodes(), opt.Seed)
		}),
	},
	{
		Name: "RCM", Cost: CostCheap,
		Compute: startChecked(func(g *graph.Graph, _ Options) order.Permutation {
			return order.RCM(g)
		}),
	},
	{
		Name: "SlashBurn", Cost: CostModerate,
		Compute: startChecked(func(g *graph.Graph, _ Options) order.Permutation {
			return order.SlashBurn(g)
		}),
	},
	{
		Name: "SlashBurn-Full", Cost: CostModerate,
		Compute: startChecked(func(g *graph.Graph, _ Options) order.Permutation {
			return order.SlashBurnFull(g, 0)
		}),
	},
}

// paperContenderNames lists the replication's ten contenders in the
// presentation order of its figures (Metis is omitted for the reasons
// both papers give; see DESIGN.md §2).
var paperContenderNames = []string{
	"Original", "Random", "MinLA", "MinLogA", "RCM",
	"InDegSort", "ChDFS", "SlashBurn", "LDG", GorderName,
}

// byName resolves lowercase names and aliases to catalog indices.
var byName = func() map[string]int {
	m := make(map[string]int, 2*len(orderings))
	add := func(name string, i int) {
		key := strings.ToLower(name)
		if _, dup := m[key]; dup {
			panic("registry: duplicate ordering name " + key)
		}
		m[key] = i
	}
	for i, o := range orderings {
		add(o.Name, i)
		for _, a := range o.Aliases {
			add(a, i)
		}
	}
	return m
}()

// Orderings returns the full catalog, alphabetised by name.
func Orderings() []Ordering {
	return append([]Ordering(nil), orderings...)
}

// Names returns the canonical ordering names, alphabetised.
func Names() []string {
	out := make([]string, len(orderings))
	for i, o := range orderings {
		out[i] = o.Name
	}
	return out
}

// MethodNames returns the lowercase (CLI/API) spelling of every
// canonical ordering name, sorted — the contract the CLI flag help and
// the server's advertised method list are defined by.
func MethodNames() []string {
	out := make([]string, len(orderings))
	for i, o := range orderings {
		out[i] = strings.ToLower(o.Name)
	}
	sort.Strings(out)
	return out
}

// Lookup resolves an ordering by canonical name or alias, case-
// insensitively.
func Lookup(name string) (Ordering, bool) {
	i, ok := byName[strings.ToLower(name)]
	if !ok {
		return Ordering{}, false
	}
	return orderings[i], true
}

// PaperContenders returns the replication's ten contenders in the
// presentation order of its figures.
func PaperContenders() []Ordering {
	out := make([]Ordering, len(paperContenderNames))
	for i, name := range paperContenderNames {
		o, ok := Lookup(name)
		if !ok {
			panic("registry: paper contender " + name + " not in catalog")
		}
		out[i] = o
	}
	return out
}

// Observation reports one instrumented ordering computation: which
// method ran, how long it took, and how it ended. It is what the
// gorderd /metrics per-method counters and the bench harness's
// ordering-time tables are built from.
type Observation struct {
	// Ordering is the canonical name of the method that ran.
	Ordering string
	// Duration is the wall time of the computation.
	Duration time.Duration
	// Canceled reports whether the computation ended on a context
	// cancellation or deadline rather than completing.
	Canceled bool
	// Err is the computation's error, if any (includes the ctx error
	// when Canceled).
	Err error
	// HeapOps and Placements are the priority-queue operation and
	// vertex-placement counts the method reported through the
	// core.OrderStats context carrier. Zero for methods that do not
	// report (only the Gorder greedy family does today).
	HeapOps    int64
	Placements int64
}

// ComputeObserved resolves name, runs the ordering under ctx, and
// returns the permutation together with the timing observation. This
// is the one instrumented code path every consumer shares.
func ComputeObserved(ctx context.Context, g *graph.Graph, name string, opt Options) (order.Permutation, Observation, error) {
	desc, ok := Lookup(name)
	if !ok {
		return nil, Observation{}, fmt.Errorf("unknown ordering %q (known: %s)",
			name, strings.Join(MethodNames(), " "))
	}
	// Refuse to start once ctx is done: a deadline bounds every
	// method's queue-to-start latency even when the method itself
	// cannot be interrupted (or is too small to hit a cancel check).
	if err := ctx.Err(); err != nil {
		return nil, Observation{Ordering: desc.Name, Canceled: true, Err: err}, err
	}
	st := new(core.OrderStats)
	ctx = core.WithOrderStats(ctx, st)
	start := time.Now()
	perm, err := desc.Compute(ctx, g, opt)
	obs := Observation{
		Ordering:   desc.Name,
		Duration:   time.Since(start),
		Canceled:   errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded),
		Err:        err,
		HeapOps:    st.HeapOps(),
		Placements: st.Placements(),
	}
	return perm, obs, err
}

// Compute is ComputeObserved without the observation return — the
// convenience entry point for callers that only need the permutation.
func Compute(ctx context.Context, g *graph.Graph, name string, opt Options) (order.Permutation, error) {
	perm, _, err := ComputeObserved(ctx, g, name, opt)
	return perm, err
}
