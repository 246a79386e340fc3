package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"gorder/internal/cli"
	"gorder/internal/graph"
	"gorder/internal/store"
)

// GraphInfo is the public description of a registered graph.
type GraphInfo struct {
	ID    string    `json:"id"`    // content hash prefix — stable across restarts
	Name  string    `json:"name"`  // caller-chosen label (filename stem for preloads)
	Nodes int       `json:"nodes"` //
	Edges int64     `json:"edges"`
	Bytes int64     `json:"bytes"` // size of the source file/upload
	Added time.Time `json:"added"`
	// Resident reports whether the graph is currently held in memory;
	// OnDisk whether a persistent blob backs it (always, once
	// registered).
	Resident bool `json:"resident"`
	OnDisk   bool `json:"on_disk"`
	// Lineage/Version/Latest are set when the lookup resolved through
	// a versioned lineage (a bare name, name@latest, or name@vN): which
	// lineage, which version this info describes, and the lineage's
	// current tip version.
	Lineage string `json:"lineage,omitempty"`
	Version int    `json:"version,omitempty"`
	Latest  int    `json:"latest,omitempty"`
}

// Registry holds the named graphs the daemon can run jobs against.
// Graphs are deduplicated by content hash: uploading the same bytes
// twice (under any name) yields the same ID and stores one copy.
//
// The registry keeps only the catalog metadata; the graphs themselves
// live in the store's residency cache (LRU under a byte budget) with
// their blobs on disk, and survive restarts.
type Registry struct {
	mu     sync.RWMutex
	byID   map[string]GraphInfo
	byName map[string]string // latest name -> id
	store  *store.Store
	graphs *Counter // registered graph count (metric)
	bytes  *Counter // cumulative accepted upload bytes (metric)

	ingests      *Counter // parses performed (dedup hits excluded)
	ingestMillis *Counter // cumulative parse+build wall time, ms
	ingestEdges  *Counter // cumulative edges ingested
}

// NewRegistry returns a registry backed by st and wired to m's
// metrics. Graphs already in the store are registered (metadata only —
// they become resident on first use); future Adds persist through it.
func NewRegistry(m *Metrics, st *store.Store) *Registry {
	r := &Registry{
		byID:         make(map[string]GraphInfo),
		byName:       make(map[string]string),
		store:        st,
		graphs:       m.Counter("graphs_loaded"),
		bytes:        m.Counter("graphs_bytes_accepted"),
		ingests:      m.Counter("ingest_total"),
		ingestMillis: m.Counter("ingest_ms_total"),
		ingestEdges:  m.Counter("ingest_edges_total"),
	}
	for _, meta := range st.Catalog() {
		r.byID[meta.Digest] = GraphInfo{
			ID:    meta.Digest,
			Name:  meta.Name,
			Nodes: meta.Nodes,
			Edges: meta.Edges,
			Bytes: meta.SrcBytes,
			Added: meta.Added,
		}
		r.graphs.Inc()
	}
	for name, digest := range st.Names() {
		if _, ok := r.byID[digest]; ok {
			r.byName[name] = digest
		}
	}
	return r
}

// graphID derives the registry ID from the source bytes: their store
// content digest.
func graphID(data []byte) string {
	h := store.NewDigest()
	h.Write(data)
	return store.DigestSum(h)
}

// Add parses data (binary CSR or text edge list, sniffed) and
// registers it under name via AddParsed. Bytes already registered skip
// the parse and only gain name as an alias (created == false).
func (r *Registry) Add(name string, data []byte) (GraphInfo, bool, error) {
	id := graphID(data)
	r.mu.RLock()
	_, dup := r.byID[id]
	r.mu.RUnlock()
	var g *graph.Graph
	var parse time.Duration
	if !dup {
		start := time.Now()
		var err error
		if g, err = cli.ReadGraphBytes(data); err != nil {
			return GraphInfo{}, false, fmt.Errorf("parsing graph %q: %w", name, err)
		}
		parse = time.Since(start)
	}
	return r.AddParsed(name, id, g, int64(len(data)), parse)
}

// AddParsed registers an already-parsed graph under name with the
// given content digest — the streaming upload path, where the body was
// hashed and parsed incrementally and never existed as one buffer.
// Identical content (by digest) deduplicates to the existing entry
// with created == false and records name as an alias; g may be nil
// only when the digest is already registered. A new graph is persisted
// before it is registered: it either lands durably or fails visibly.
func (r *Registry) AddParsed(name, id string, g *graph.Graph, srcBytes int64, parse time.Duration) (GraphInfo, bool, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return GraphInfo{}, false, fmt.Errorf("graph name is required")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if info, ok := r.byID[id]; ok {
		r.byName[name] = id
		if err := r.store.SetName(name, id); err != nil {
			return GraphInfo{}, false, fmt.Errorf("recording alias %q: %w", name, err)
		}
		return r.annotateLocked(info), false, nil
	}
	if g == nil {
		return GraphInfo{}, false, fmt.Errorf("graph %s was deregistered during registration; retry", id)
	}
	r.ingests.Inc()
	r.ingestMillis.Add(parse.Milliseconds())
	r.ingestEdges.Add(g.NumEdges())
	if err := r.store.PutGraph(id, name, g, srcBytes); err != nil {
		return GraphInfo{}, false, err
	}
	info := GraphInfo{
		ID:    id,
		Name:  name,
		Nodes: g.NumNodes(),
		Edges: g.NumEdges(),
		Bytes: srcBytes,
		Added: time.Now().UTC(),
	}
	r.byID[id] = info
	r.byName[name] = id
	r.graphs.Inc()
	r.bytes.Add(srcBytes)
	return r.annotateLocked(info), true, nil
}

// annotateLocked fills the dynamic residency fields of an info
// snapshot.
func (r *Registry) annotateLocked(info GraphInfo) GraphInfo {
	info.Resident, info.OnDisk = r.store.Resident(info.ID), true
	return info
}

// graphFileExts are the dataset filename extensions LoadDir accepts.
var graphFileExts = map[string]bool{
	".bin": true, ".graph": true, ".txt": true, ".el": true, ".edges": true,
}

// LoadDir registers every graph file in dir (non-recursive), named by
// filename stem. Unparseable files abort the load — a corrupt dataset
// directory is a deployment error, not something to skip silently.
func (r *Registry) LoadDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	loaded := 0
	for _, de := range entries {
		if de.IsDir() || !graphFileExts[filepath.Ext(de.Name())] {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			return loaded, err
		}
		name := strings.TrimSuffix(de.Name(), filepath.Ext(de.Name()))
		if _, _, err := r.Add(name, data); err != nil {
			return loaded, err
		}
		loaded++
	}
	return loaded, nil
}

// parseRef splits a version-qualified graph reference: "name@vN"
// pins version N, "name@latest" follows the tip (same as the bare
// name, but explicit). Anything without a well-formed qualifier is a
// plain reference (versioned reports false) and resolves as before —
// digest first, then name — so names containing '@' that never meant
// a version keep working.
func parseRef(ref string) (name string, version int, versioned bool) {
	i := strings.LastIndexByte(ref, '@')
	if i <= 0 || i == len(ref)-1 {
		return ref, 0, false
	}
	name, tag := ref[:i], ref[i+1:]
	if tag == "latest" {
		return name, 0, true
	}
	if strings.HasPrefix(tag, "v") {
		if n, err := strconv.Atoi(tag[1:]); err == nil && n >= 1 {
			return name, n, true
		}
	}
	return ref, 0, false
}

// resolveLocked maps a reference to its entry: a registered digest, a
// version-qualified lineage member, or a name — in that order.
// Lineage-resolved lookups also report which lineage and version the
// reference landed on.
func (r *Registry) resolveLocked(ref string) (GraphInfo, bool) {
	if info, ok := r.byID[ref]; ok {
		return info, true
	}
	name, want, versioned := parseRef(ref)
	if versioned {
		digest, resolved, latest, err := r.store.ResolveVersion(name, want)
		if err == nil {
			if info, ok := r.byID[digest]; ok {
				info.Lineage, info.Version, info.Latest = name, resolved, latest
				return info, true
			}
		}
		return GraphInfo{}, false
	}
	if id, named := r.byName[ref]; named {
		if info, ok := r.byID[id]; ok {
			if _, resolved, latest, err := r.store.ResolveVersion(ref, 0); err == nil {
				info.Lineage, info.Version, info.Latest = ref, resolved, latest
			}
			return info, true
		}
	}
	return GraphInfo{}, false
}

// Stat resolves a graph's metadata by ID, version reference
// (name@vN, name@latest), or name — without loading an evicted graph
// back into memory. Use this for validation and listing; Get for
// actually running against the graph.
func (r *Registry) Stat(ref string) (GraphInfo, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	info, ok := r.resolveLocked(ref)
	if !ok {
		return GraphInfo{}, false
	}
	return r.annotateLocked(info), true
}

// Get resolves a graph by ID, version reference, or name. This may
// reload an evicted graph from disk; a graph whose blob turns out
// corrupt is deregistered (the store already dropped the blob and
// healed any lineage it tipped) and reported as absent, so the content
// can be re-uploaded.
func (r *Registry) Get(ref string) (*graph.Graph, GraphInfo, bool) {
	r.mu.RLock()
	info, ok := r.resolveLocked(ref)
	r.mu.RUnlock()
	if !ok {
		return nil, GraphInfo{}, false
	}
	g, err := r.store.GetGraph(info.ID)
	if err != nil {
		if errors.Is(err, store.ErrCorrupt) || errors.Is(err, store.ErrUnknownGraph) {
			r.drop(info.ID)
		}
		return nil, info, false
	}
	return g, info, true
}

// Advance registers g as the next version of the named lineage — the
// mutation path behind POST /graphs/{name}/edges. The store encodes g
// once into its blob and derives the content digest from those bytes
// (the same ID an upload of them would get), appends it to the
// lineage, and the name is repointed at the new tip.
func (r *Registry) Advance(name string, g *graph.Graph) (GraphInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, size, ver, err := r.store.AppendGraph(name, g)
	if err != nil {
		return GraphInfo{}, err
	}
	info, ok := r.byID[id]
	if !ok {
		info = GraphInfo{
			ID:    id,
			Name:  name,
			Nodes: g.NumNodes(),
			Edges: g.NumEdges(),
			Bytes: size,
			Added: time.Now().UTC(),
		}
		r.byID[id] = info
		r.graphs.Inc()
		r.bytes.Add(size)
	}
	r.byName[name] = id
	info.Lineage, info.Version, info.Latest = name, ver, ver
	return r.annotateLocked(info), nil
}

// drop removes a graph the store can no longer serve. Names that
// pointed at it follow their lineage's healed tip (the store repoints
// lineages when it drops a blob) instead of vanishing, so a corrupt
// tip degrades a name to the previous version rather than a 404.
func (r *Registry) drop(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.byID, id)
	for name, d := range r.byName {
		if d != id {
			continue
		}
		if tip, _, _, err := r.store.ResolveVersion(name, 0); err == nil {
			if _, ok := r.byID[tip]; ok {
				r.byName[name] = tip
				continue
			}
		}
		delete(r.byName, name)
	}
}

// List returns every registered graph, sorted by name then ID.
func (r *Registry) List() []GraphInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]GraphInfo, 0, len(r.byID))
	for _, info := range r.byID {
		out = append(out, r.annotateLocked(info))
	}
	slices.SortFunc(out, func(a, b GraphInfo) int {
		if c := strings.Compare(a.Name, b.Name); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
	return out
}
