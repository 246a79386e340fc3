package gorder_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"gorder"
	"gorder/internal/bench"
	"gorder/internal/registry"
	"gorder/internal/server"
	"gorder/internal/store"
)

// These tests pin every consumer's view of the method and kernel
// catalogs to internal/registry, so a name added (or renamed) in one
// layer but not the others fails loudly instead of drifting.

func TestParityBenchContenders(t *testing.T) {
	var got []string
	for _, o := range bench.Orderings() {
		got = append(got, o.Name)
	}
	var want []string
	for _, o := range registry.PaperContenders() {
		want = append(want, o.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("bench contenders = %v, want %v", got, want)
	}
	var kn []string
	for _, k := range bench.Kernels() {
		kn = append(kn, k.Name)
	}
	want = nil
	for _, k := range registry.PaperKernels() {
		want = append(want, k.Name)
	}
	if !reflect.DeepEqual(kn, want) {
		t.Errorf("bench kernels = %v, want %v", kn, want)
	}
}

func TestParityFacadeKernelConstants(t *testing.T) {
	got := []string{
		gorder.KernelNQ, gorder.KernelBFS, gorder.KernelDFS, gorder.KernelSCC,
		gorder.KernelSP, gorder.KernelPR, gorder.KernelDS, gorder.KernelKcore,
		gorder.KernelDiam, gorder.KernelWCC, gorder.KernelTriangles, gorder.KernelLabelProp,
	}
	sort.Strings(got)
	if want := registry.KernelNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("facade kernel constants = %v, want registry catalog %v", got, want)
	}
	if !reflect.DeepEqual(gorder.KernelNames(), registry.KernelNames()) {
		t.Error("gorder.KernelNames() diverges from the registry catalog")
	}
}

// TestParityParallelFamilyNames pins the parallel-ordering family in
// the registry catalog: the lightweight reorderings and the
// partition-parallel Gorder must stay resolvable under these names
// (and the historical gorder-parallel alias), all cancellable and
// worker-aware.
func TestParityParallelFamilyNames(t *testing.T) {
	for _, name := range []string{
		"boba", "dbg", "hubsort", "hubcluster", "gorder-partitioned", "gorder-parallel",
	} {
		desc, ok := registry.Lookup(name)
		if !ok {
			t.Errorf("registry.Lookup(%q): not found", name)
			continue
		}
		if !desc.Cancellable {
			t.Errorf("%s (%s) is not cancellable", name, desc.Name)
		}
		consumesWorkers := false
		for _, f := range desc.Consumes {
			if f == registry.OptWorkers {
				consumesWorkers = true
			}
		}
		if !consumesWorkers {
			t.Errorf("%s (%s) does not consume the workers option", name, desc.Name)
		}
	}
}

func TestParityServerAdvertisedMethods(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := server.New(server.Config{Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/methods")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /methods: %s", resp.Status)
	}
	var body struct {
		Orderings []struct {
			Name        string `json:"name"`
			Cancellable bool   `json:"cancellable"`
			Cost        string `json:"cost"`
		} `json:"orderings"`
		Kernels []string `json:"kernels"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, o := range body.Orderings {
		got = append(got, o.Name)
		if o.Cost == "" {
			t.Errorf("/methods entry %s has no cost class", o.Name)
		}
	}
	for _, o := range registry.Orderings() {
		want = append(want, o.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("server advertises %v, want registry catalog %v", got, want)
	}
	if !reflect.DeepEqual(body.Kernels, registry.KernelNames()) {
		t.Errorf("server kernels = %v, want %v", body.Kernels, registry.KernelNames())
	}
}
