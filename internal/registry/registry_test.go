package registry

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"gorder/internal/core"
	"gorder/internal/gen"
	"gorder/internal/graph"
	"gorder/internal/order"
)

func TestCatalogAlphabetised(t *testing.T) {
	names := Names()
	if !sort.SliceIsSorted(names, func(a, b int) bool {
		return strings.ToLower(names[a]) < strings.ToLower(names[b])
	}) {
		t.Errorf("ordering catalog not alphabetised: %v", names)
	}
	kn := make([]string, 0, len(kernels))
	for _, k := range kernels {
		kn = append(kn, k.Name)
	}
	if !sort.SliceIsSorted(kn, func(a, b int) bool {
		return strings.ToLower(kn[a]) < strings.ToLower(kn[b])
	}) {
		t.Errorf("kernel catalog not alphabetised: %v", kn)
	}
}

func TestLookupCaseInsensitiveAndAliases(t *testing.T) {
	for _, name := range []string{"gorder", "GORDER", "Gorder", "slashburn-full", "identity"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) failed", name)
		}
	}
	if o, _ := Lookup("identity"); o.Name != "Original" {
		t.Errorf("alias identity resolved to %q, want Original", o.Name)
	}
	if _, ok := Lookup("metis"); ok {
		t.Error("Lookup(metis) succeeded; Metis is out of scope")
	}
}

func TestEveryOrderingComputesValidPermutation(t *testing.T) {
	g := gen.BarabasiAlbert(150, 4, 1)
	for _, o := range Orderings() {
		p, err := o.Compute(context.Background(), g, Options{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", o.Name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: invalid permutation: %v", o.Name, err)
		}
	}
}

func TestComputeUnknownOrdering(t *testing.T) {
	g := graph.FromEdges(2, nil)
	if _, err := Compute(context.Background(), g, "metis", Options{}); err == nil {
		t.Fatal("unknown ordering accepted")
	}
}

func TestEveryOrderingRefusesDoneContext(t *testing.T) {
	g := gen.BarabasiAlbert(100, 3, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, o := range Orderings() {
		if _, err := Compute(ctx, g, o.Name, Options{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", o.Name, err)
		}
	}
}

func TestLDGBinsOption(t *testing.T) {
	g := gen.BarabasiAlbert(200, 4, 1)
	p64, err := Compute(context.Background(), g, "ldg", Options{})
	if err != nil {
		t.Fatal(err)
	}
	p8, err := Compute(context.Background(), g, "ldg", Options{LDGBins: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range p64 {
		if p64[i] != p8[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("LDGBins=8 produced the same ordering as the default 64 bins")
	}
	// The default is the documented 64.
	pDefault := order.LDG(g, DefaultLDGBins)
	for i := range p64 {
		if p64[i] != pDefault[i] {
			t.Fatal("zero LDGBins does not match the documented default of 64")
		}
	}
}

func TestSeedReachesStochasticMethods(t *testing.T) {
	g := gen.BarabasiAlbert(300, 4, 1)
	for _, name := range []string{"random", "minla", "minloga"} {
		a, err := Compute(context.Background(), g, name, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Compute(context.Background(), g, name, Options{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: seeds 1 and 99 produced identical permutations", name)
		}
	}
}

func TestObserversSeeComputations(t *testing.T) {
	g := gen.BarabasiAlbert(100, 3, 1)
	if _, obs, err := ComputeObserved(context.Background(), g, "rcm", Options{}); err != nil {
		t.Fatal(err)
	} else if obs.Ordering != "RCM" || obs.Canceled || obs.Duration < 0 {
		t.Errorf("bad observation %+v", obs)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, obs, err := ComputeObserved(ctx, g, "gorder", Options{}); err == nil {
		t.Fatal("expired deadline not honoured")
	} else if !obs.Canceled {
		t.Errorf("observation not marked canceled: %+v", obs)
	}
}

func TestPaperContendersAndKernels(t *testing.T) {
	cs := PaperContenders()
	if len(cs) != 10 {
		t.Fatalf("contenders = %d, want 10", len(cs))
	}
	if cs[len(cs)-1].Name != GorderName {
		t.Errorf("last contender %q, want %s", cs[len(cs)-1].Name, GorderName)
	}
	ks := PaperKernels()
	if len(ks) != 9 {
		t.Fatalf("paper kernels = %d, want 9", len(ks))
	}
	for _, k := range ks {
		if !k.Paper {
			t.Errorf("kernel %s from PaperKernels not marked Paper", k.Name)
		}
		if k.Run == nil || k.RunTraced == nil {
			t.Errorf("kernel %s missing an entry point", k.Name)
		}
	}
	for _, k := range Kernels() {
		if k.Run == nil || k.RunTraced == nil {
			t.Errorf("kernel %s missing an entry point", k.Name)
		}
	}
}

func TestLookupKernel(t *testing.T) {
	for _, name := range []string{"PR", "pr", "Kcore", "KCORE", "WCC", "Tri", "LP"} {
		if _, ok := LookupKernel(name); !ok {
			t.Errorf("LookupKernel(%q) failed", name)
		}
	}
	if _, ok := LookupKernel("nope"); ok {
		t.Error("bogus kernel found")
	}
}

// TestCanonicalOptions pins the normalization the artifact cache keys
// on: unconsumed fields zeroed, consumed zero-values defaulted.
func TestCanonicalOptions(t *testing.T) {
	// Gorder ignores seed and LDG bins; window 0 means the default.
	c, err := CanonicalOptions("gorder", Options{Seed: 99, LDGBins: 7})
	if err != nil {
		t.Fatal(err)
	}
	if c != (Options{Window: core.DefaultWindow}) {
		t.Errorf("gorder canonical = %+v", c)
	}
	// RCM consumes nothing: every spelling collapses to the zero Options.
	c, err = CanonicalOptions("RCM", Options{Window: 9, Seed: 5, LDGBins: 3, HubThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c != (Options{}) {
		t.Errorf("rcm canonical = %+v, want zero", c)
	}
	// LDG defaults its bin count.
	c, err = CanonicalOptions("ldg", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.LDGBins != DefaultLDGBins {
		t.Errorf("ldg canonical bins = %d, want %d", c.LDGBins, DefaultLDGBins)
	}
	if _, err := CanonicalOptions("nope", Options{}); err == nil {
		t.Error("unknown ordering canonicalised without error")
	}
}

// TestOptionsKey checks the cache-key digest: stable across
// equivalent spellings, distinct across effective parameter changes,
// and sensitive to the seed only for stochastic methods.
func TestOptionsKey(t *testing.T) {
	key := func(name string, o Options) string {
		t.Helper()
		_, k, err := OptionsKey(name, o)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if key("gorder", Options{}) != key("GORDER", Options{Window: core.DefaultWindow, Seed: 42}) {
		t.Error("equivalent gorder spellings got different keys")
	}
	if key("gorder", Options{Window: 3}) == key("gorder", Options{Window: 4}) {
		t.Error("different windows share a key")
	}
	if key("gorder", Options{}) == key("rcm", Options{}) {
		t.Error("different methods share a key")
	}
	if key("random", Options{Seed: 1}) == key("random", Options{Seed: 2}) {
		t.Error("stochastic method ignores the seed in its key")
	}
	if key("minla", Options{Seed: 1}) == key("random", Options{Seed: 1}) {
		t.Error("minla and random share a key")
	}
}

// TestStochasticConsumesSeed enforces the catalog invariant
// CanonicalOptions depends on: a stochastic method must declare
// OptSeed (else its cache key would collide across seeds), and a
// deterministic one must not (else identical runs would miss).
func TestStochasticConsumesSeed(t *testing.T) {
	for _, o := range Orderings() {
		consumesSeed := false
		for _, f := range o.Consumes {
			if f == OptSeed {
				consumesSeed = true
			}
		}
		if o.Stochastic != consumesSeed {
			t.Errorf("%s: stochastic=%v but consumes-seed=%v", o.Name, o.Stochastic, consumesSeed)
		}
	}
}

// TestWorkersNeverInKey pins the Workers contract: the parallel
// methods consume Workers for scheduling, but every spelling of the
// worker count — including the GOMAXPROCS default — must map to the
// same canonical options and the same artifact cache key, because the
// permutation is worker-independent.
func TestWorkersNeverInKey(t *testing.T) {
	for _, name := range []string{"boba", "dbg", "hubsort", "hubcluster", "gorder-partitioned"} {
		base, kBase, err := OptionsKey(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if base.Workers != 0 {
			t.Errorf("%s: canonical workers = %d, want 0", name, base.Workers)
		}
		for _, workers := range []int{1, 4, 8} {
			c, k, err := OptionsKey(name, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if c != base || k != kBase {
				t.Errorf("%s: workers=%d split the cache key (%+v %s vs %+v %s)",
					name, workers, c, k, base, kBase)
			}
		}
	}
}

// TestPartitionedOptionsKey pins Gorder-Partitioned's key semantics:
// partition count is part of the result (distinct keys), the zero
// value canonicalises to the default, and the gorder-parallel alias
// shares the canonical entry's keys.
func TestPartitionedOptionsKey(t *testing.T) {
	key := func(o Options) string {
		t.Helper()
		_, k, err := OptionsKey("gorder-partitioned", o)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	c, _, err := OptionsKey("gorder-partitioned", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Partitions != core.DefaultPartitions {
		t.Errorf("canonical partitions = %d, want %d", c.Partitions, core.DefaultPartitions)
	}
	if key(Options{}) != key(Options{Partitions: core.DefaultPartitions, Workers: 8, Seed: 3}) {
		t.Error("equivalent partitioned spellings got different keys")
	}
	if key(Options{Partitions: 4}) == key(Options{Partitions: 8}) {
		t.Error("different partition counts share a key")
	}
	if key(Options{}) == mustKey(t, "gorder", Options{}) {
		t.Error("gorder-partitioned and gorder share a key")
	}
	_, aliasKey, err := OptionsKey("gorder-parallel", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if aliasKey != key(Options{}) {
		t.Error("gorder-parallel alias does not share gorder-partitioned's key")
	}
}

func mustKey(t *testing.T, name string, o Options) string {
	t.Helper()
	_, k, err := OptionsKey(name, o)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestParallelFamilyCapabilities pins the capability metadata of the
// lightweight parallel reordering family.
func TestParallelFamilyCapabilities(t *testing.T) {
	for _, name := range []string{"BOBA", "DBG", "HubSort", "HubCluster"} {
		desc, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s missing from catalog", name)
		}
		if !desc.Cancellable {
			t.Errorf("%s: not marked Cancellable", name)
		}
		if desc.Cost != CostCheap {
			t.Errorf("%s: cost = %s, want %s", name, desc.Cost, CostCheap)
		}
		if desc.Stochastic {
			t.Errorf("%s: marked stochastic", name)
		}
	}
	desc, ok := Lookup("gorder-partitioned")
	if !ok {
		t.Fatal("gorder-partitioned missing from catalog")
	}
	if !desc.Cancellable || desc.Cost != CostExpensive {
		t.Errorf("gorder-partitioned capabilities wrong: %+v", desc)
	}
}
