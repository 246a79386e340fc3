package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"gorder/internal/graph"
)

// ErrUnknownLineage reports a graph name the store has no version
// history for.
var ErrUnknownLineage = errors.New("store: unknown lineage")

// ErrUnknownVersion reports a version number outside a lineage's
// recorded range.
var ErrUnknownVersion = errors.New("store: unknown version")

// ErrBadName reports a lineage name that parses as a version
// reference (name@vN or name@latest), which no ref could address.
var ErrBadName = errors.New("store: lineage name reads as a version reference")

// ErrStaleTip reports a quality record computed for a version that is
// no longer its lineage's tip.
var ErrStaleTip = errors.New("store: version is no longer the lineage's tip")

// MaxDirtyTracked caps how many changed-edge endpoints a lineage's
// quality record accumulates between full orderings. Past the cap the
// record flips to DirtyOverflow and the next repair must be a full
// recompute — an unbounded dirty list would both bloat the manifest
// and make incremental repair pointless.
const MaxDirtyTracked = 4096

// VersionInfo describes one version of a lineage.
type VersionInfo struct {
	Version int // 1-based; Versions[0] is v1
	Digest  string
	Nodes   int
	Edges   int64
	Added   time.Time
}

// Quality is a lineage's ordering-quality state, persisted in its
// manifest record: the monitor's baseline (set at the last full
// ordering) and running totals, maintained incrementally across
// mutation batches so a restarted daemon resumes decay tracking
// without rescoring anything. The zero Method means no ordering has
// been recorded yet.
type Quality struct {
	Method      string  `json:"method"`       // canonical ordering the lineage follows
	OptKey      string  `json:"opt_key"`      // its canonical-options hash (artifact key part)
	OptionsJSON string  `json:"options_json"` // canonical options as JSON — opt_key is a hash, repair jobs need the values
	Window      int     `json:"window"`       // window width F is tracked at
	BaseF       int64   `json:"base_f"`       // F(pi) at the last full ordering
	BaseEdges   int64   `json:"base_edges"`   // edge count then
	BasePacking float64 `json:"base_packing"` // packing factor then
	CurF        int64   `json:"cur_f"`        // F(pi) on the current tip
	CurEdges    int64   `json:"cur_edges"`
	CurPacking  float64 `json:"cur_packing"`
	CleanNodes  int     `json:"clean_nodes"` // vertex count at the last full ordering; repair re-places everything after it
	Repairs     int     `json:"repairs"`     // incremental repairs since the last full ordering
	// Dirty accumulates changed-edge endpoints since the last full
	// ordering, capped at MaxDirtyTracked; past the cap DirtyOverflow
	// forces the next repair to be a full recompute.
	Dirty         []graph.NodeID `json:"dirty,omitempty"`
	DirtyOverflow bool           `json:"dirty_overflow,omitempty"`
}

// Decay is the monitor's quality signal: the current edge-normalised
// score density relative to the baseline's. It tracks the true ratio
// against a full recompute within a few percent on growth workloads
// (F scales with edge count at constant ordering quality) without
// ever rescoring the whole graph. 1.0 (or above) is healthy; 0 if no
// baseline exists.
func (q Quality) Decay() float64 {
	if q.BaseF <= 0 || q.BaseEdges <= 0 || q.CurEdges <= 0 {
		return 0
	}
	return (float64(q.CurF) / float64(q.CurEdges)) /
		(float64(q.BaseF) / float64(q.BaseEdges))
}

// LineageInfo is the catalog view of one named graph's history.
type LineageInfo struct {
	Name     string
	Versions []VersionInfo
	Quality  *Quality // nil until an ordering is recorded
}

// OrderKey names one ordering artifact of a graph digest: the method
// plus canonical-options hash. The mutation path uses it to discover
// which artifacts of the old tip to carry forward to the new one.
type OrderKey struct {
	Method string
	OptKey string
}

// AppendVersion persists g as the next version of the named lineage:
// the blob is stored content-addressed under digest (once — a digest
// already stored, under any name, keeps its blob), the lineage gains a
// version entry, the new tip replaces the old one in memory, and the
// quality record, which described the old tip, is cleared. g may
// be nil when digest is already stored — a version PatchGraph wrote —
// and the new tip then takes no residency: its holder keeps it in
// another form. Appending the digest already at the tip is a no-op
// (idempotent replays). The lineage is created if the name is new; a
// name that reads as a version reference fails with ErrBadName. Returns
// the 1-based version number now at the tip.
func (s *Store) AppendVersion(name, digest string, g *graph.Graph, srcBytes int64) (int, error) {
	if base, _ := parseRef(name); base != name {
		return 0, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.tipVersionLocked(name, digest); ok {
		return v, nil
	}
	if _, ok := s.man.Graphs[digest]; !ok && g == nil {
		return 0, fmt.Errorf("%w: %s", ErrUnknownGraph, digest)
	}
	if err := s.persistGraphLocked(digest, name, g, srcBytes); err != nil {
		return 0, err
	}
	return s.advanceLocked(name, digest, g)
}

// PatchGraph stores the version an edit batch derives from the stored
// graph parent, without building it: graph.PatchBinary streams parent's
// blob into the new one, patching the touched rows, so the bytes — and
// with them the digest, hashed on the way — are those WriteBinary gives
// the edited graph, and an upload of them deduplicates to the same ID.
// The stream runs outside the store lock. The new graph joins no
// lineage and takes no residency: AppendVersion(name, digest, nil, 0)
// makes it a tip. A batch CheckEdits rejects fails before anything is
// read; a parent blob that fails its checksum or structure checks is
// dropped, as GetGraph drops it, and reported as ErrCorrupt, its
// half-written successor discarded. Returns the digest, the new blob's
// size, and the batch's stats.
func (s *Store) PatchGraph(parent, name string, addNodes int, add, del []graph.Edge) (digest string, size int64, st graph.EditStats, err error) {
	s.mu.Lock()
	prec, ok := s.man.Graphs[parent]
	if !ok {
		s.mu.Unlock()
		return "", 0, st, fmt.Errorf("%w: %s", ErrUnknownGraph, parent)
	}
	prec.LastAccess = time.Now().UTC()
	nodes, edges := prec.Nodes, prec.Edges
	s.mu.Unlock()
	if err := graph.CheckEdits(nodes, addNodes, add, del); err != nil {
		return "", 0, st, err
	}

	var parentSize int64
	f, err := os.Open(s.graphPath(parent))
	if err == nil {
		defer f.Close()
		var fi os.FileInfo
		if fi, err = f.Stat(); err == nil {
			parentSize = fi.Size()
		}
	}
	if err != nil {
		s.dropGraph(parent)
		return "", 0, st, fmt.Errorf("%w: graph %s: %v", ErrCorrupt, parent, err)
	}
	sum := crc32.NewIEEE()
	var patchErr error
	var cw *countWriter
	locked := false
	err = writeAtomicNamed(filepath.Join(s.dir, graphsDirName), "blob.tmp-*", 0o644,
		func(w io.Writer) error {
			h := NewDigest()
			cw = &countWriter{w: io.MultiWriter(w, sum, h)}
			st, patchErr = graph.PatchBinary(cw, f, parentSize, addNodes, add, del)
			digest = DigestSum(h)
			return patchErr
		},
		func() string {
			s.mu.Lock()
			locked = true
			if _, ok := s.man.Graphs[digest]; ok {
				return "" // the edit made content that is already stored
			}
			return s.graphPath(digest)
		})
	if locked {
		defer s.mu.Unlock()
	}
	switch {
	case patchErr != nil && cw.err == nil && !errors.Is(patchErr, graph.ErrBadMagic):
		// The parent failed to read back: bit rot, not a full disk.
		s.dropGraph(parent)
		return "", 0, st, fmt.Errorf("%w: graph %s: %v", ErrCorrupt, parent, patchErr)
	case err != nil:
		return "", 0, st, fmt.Errorf("store: persisting an edit of %s for %q: %w", parent, name, err)
	}
	if _, ok := s.man.Graphs[digest]; !ok {
		now := time.Now().UTC()
		s.man.Graphs[digest] = &graphRec{
			Name: name, Nodes: nodes + addNodes, Edges: edges + int64(st.Added-st.Deleted),
			SrcBytes: cw.n, FileBytes: cw.n,
			CRC32: fmt.Sprintf("%08x", sum.Sum32()),
			Added: now, LastAccess: now,
		}
	}
	return digest, cw.n, st, nil
}

// tipVersionLocked reports the tip's version number when digest is
// already name's tip.
func (s *Store) tipVersionLocked(name, digest string) (int, bool) {
	if lin := s.man.Lineages[name]; lin != nil && lin.tip() == digest {
		return len(lin.Versions), true
	}
	return 0, false
}

// advanceLocked appends the stored digest to name's lineage (creating
// it) and swaps g, unless nil, into residency for the tip it
// supersedes.
func (s *Store) advanceLocked(name, digest string, g *graph.Graph) (int, error) {
	lin := s.man.Lineages[name]
	if lin == nil {
		lin = &lineageRec{}
		s.man.Lineages[name] = lin
	}
	oldTip := lin.tip()
	lin.Versions = append(lin.Versions, digest)
	lin.Quality = nil
	if err := s.saveManifestLocked(); err != nil {
		return 0, err
	}
	if g != nil {
		s.admitLocked(digest, g)
	}
	s.releaseLocked(oldTip)
	return len(lin.Versions), nil
}

// ResolveVersion maps (name, version) to a digest. version 0 means
// the tip. The tip's version number is returned alongside so callers
// can report what "latest" resolved to.
func (s *Store) ResolveVersion(name string, version int) (digest string, resolved, latest int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resolveVersionLocked(name, version)
}

func (s *Store) resolveVersionLocked(name string, version int) (digest string, resolved, latest int, err error) {
	lin := s.man.Lineages[name]
	if lin == nil || len(lin.Versions) == 0 {
		return "", 0, 0, fmt.Errorf("%w: %s", ErrUnknownLineage, name)
	}
	latest = len(lin.Versions)
	if version == 0 {
		version = latest
	}
	if version < 1 || version > latest {
		return "", 0, latest, fmt.Errorf("%w: %s@v%d (have v1..v%d)", ErrUnknownVersion, name, version, latest)
	}
	return lin.Versions[version-1], version, latest, nil
}

// Lookup resolves a graph reference to its catalog entry without
// loading the graph: a stored digest, else a lineage version —
// name@vN pins version N, and a bare name or name@latest follows the
// tip. Lineage-resolved entries report the lineage, the version the
// reference landed on, and the tip's version.
func (s *Store) Lookup(ref string) (GraphMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.man.Graphs[ref]; ok {
		return metaOf(ref, rec), true
	}
	name, version := parseRef(ref)
	digest, resolved, latest, err := s.resolveVersionLocked(name, version)
	if err != nil {
		return GraphMeta{}, false
	}
	rec, ok := s.man.Graphs[digest]
	if !ok {
		return GraphMeta{}, false
	}
	meta := metaOf(digest, rec)
	meta.Lineage, meta.Version, meta.Latest = name, resolved, latest
	return meta, true
}

// parseRef splits a version-qualified graph reference: "name@vN" pins
// version N, "name@latest" follows the tip (version 0, like the bare
// name). Anything without a well-formed qualifier is a plain name, so
// names containing '@' that never meant a version keep working.
func parseRef(ref string) (name string, version int) {
	i := strings.LastIndexByte(ref, '@')
	if i <= 0 || i == len(ref)-1 {
		return ref, 0
	}
	name, tag := ref[:i], ref[i+1:]
	if tag == "latest" {
		return name, 0
	}
	if strings.HasPrefix(tag, "v") {
		if n, err := strconv.Atoi(tag[1:]); err == nil && n >= 1 {
			return name, n
		}
	}
	return ref, 0
}

// Stat resolves ref to its digest and vertex count without loading
// the graph — half of the query tier's query.Source.
func (s *Store) Stat(ref string) (digest string, nodes int, ok bool) {
	meta, ok := s.Lookup(ref)
	return meta.Digest, meta.Nodes, ok
}

// Resolve looks ref up and loads the graph it names — the other half
// of query.Source. A blob that turns out corrupt reports absent: the
// store has already dropped it and healed any lineage it tipped, so
// the same ref then names the previous version.
func (s *Store) Resolve(ref string) (*graph.Graph, string, bool) {
	meta, ok := s.Lookup(ref)
	if !ok {
		return nil, "", false
	}
	g, err := s.GetGraph(meta.Digest)
	return g, meta.Digest, err == nil
}

// Lineage returns the version history of a named graph.
func (s *Store) Lineage(name string) (LineageInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lin := s.man.Lineages[name]
	if lin == nil || len(lin.Versions) == 0 {
		return LineageInfo{}, false
	}
	return s.lineageInfoLocked(name, lin), true
}

// Lineages returns every lineage's catalog view, sorted by name.
func (s *Store) Lineages() []LineageInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]LineageInfo, 0, len(s.man.Lineages))
	for name, lin := range s.man.Lineages {
		if len(lin.Versions) > 0 {
			out = append(out, s.lineageInfoLocked(name, lin))
		}
	}
	slices.SortFunc(out, func(a, b LineageInfo) int { return strings.Compare(a.Name, b.Name) })
	return out
}

func (s *Store) lineageInfoLocked(name string, lin *lineageRec) LineageInfo {
	info := LineageInfo{Name: name, Versions: make([]VersionInfo, 0, len(lin.Versions))}
	for i, digest := range lin.Versions {
		vi := VersionInfo{Version: i + 1, Digest: digest}
		if rec, ok := s.man.Graphs[digest]; ok {
			vi.Nodes, vi.Edges, vi.Added = rec.Nodes, rec.Edges, rec.Added
		}
		info.Versions = append(info.Versions, vi)
	}
	if lin.Quality != nil {
		q := lin.Quality.clone()
		info.Quality = &q
	}
	return info
}

// SetQuality records the named lineage's ordering-quality state for
// its tip, clamping the dirty list to MaxDirtyTracked (overflow
// sticks). It fails with ErrStaleTip unless tip is still the lineage's
// tip, so a record computed for a superseded version never lands.
func (s *Store) SetQuality(name, tip string, q Quality) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lin := s.man.Lineages[name]
	switch {
	case lin == nil || len(lin.Versions) == 0:
		return fmt.Errorf("%w: %s", ErrUnknownLineage, name)
	case lin.tip() != tip:
		return fmt.Errorf("%w: %s is not %s's tip", ErrStaleTip, tip, name)
	}
	if len(q.Dirty) > MaxDirtyTracked {
		q.DirtyOverflow = true
		q.Dirty = q.Dirty[:MaxDirtyTracked]
	}
	q = q.clone()
	lin.Quality = &q
	return s.saveManifestLocked()
}

// GetQuality returns the named lineage's quality state, if recorded.
func (s *Store) GetQuality(name string) (Quality, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lin := s.man.Lineages[name]
	if lin == nil || lin.Quality == nil {
		return Quality{}, false
	}
	return lin.Quality.clone(), true
}

// clone copies q with its own Dirty slice, so the manifest's record
// never aliases a caller's.
func (q Quality) clone() Quality {
	q.Dirty = append([]graph.NodeID(nil), q.Dirty...)
	return q
}

// OrdersFor lists the ordering artifacts stored for one graph digest,
// sorted by method then options hash. The mutation path walks it to
// carry each of the old tip's orderings forward to the new version.
func (s *Store) OrdersFor(digest string) []OrderKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []OrderKey
	for _, file := range s.orders[digest] {
		rec := s.man.Orders[file]
		out = append(out, OrderKey{Method: rec.Method, OptKey: rec.OptKey})
	}
	slices.SortFunc(out, func(a, b OrderKey) int {
		if c := strings.Compare(a.Method, b.Method); c != 0 {
			return c
		}
		return strings.Compare(a.OptKey, b.OptKey)
	})
	return out
}

// persistGraphLocked writes g's CSR blob and manifest record under
// digest unless it is already stored — the write path of uploads.
func (s *Store) persistGraphLocked(digest, name string, g *graph.Graph, srcBytes int64) error {
	if _, ok := s.man.Graphs[digest]; ok {
		return nil
	}
	var fileBytes int64
	sum := crc32.NewIEEE()
	err := WriteFileAtomic(s.graphPath(digest), 0o644, func(w io.Writer) error {
		cw := &countWriter{w: io.MultiWriter(w, sum)}
		err := g.WriteBinary(cw)
		fileBytes = cw.n
		return err
	})
	if err != nil {
		return fmt.Errorf("store: persisting graph %s of %q: %w", digest, name, err)
	}
	now := time.Now().UTC()
	s.man.Graphs[digest] = &graphRec{
		Name: name, Nodes: g.NumNodes(), Edges: g.NumEdges(),
		SrcBytes: srcBytes, FileBytes: fileBytes,
		CRC32: fmt.Sprintf("%08x", sum.Sum32()),
		Added: now, LastAccess: now,
	}
	return nil
}

// healLineagesLocked reconciles every lineage against the graphs
// still recorded (at Open, and after dropGraph drops one): versions
// whose records are gone close over — a corrupt tip heals to the
// previous version — and emptied lineages disappear. A quality record
// of a dropped tip is cleared so the monitor re-baselines instead of
// trusting totals for a graph that no longer exists. Reports whether
// anything changed.
func (s *Store) healLineagesLocked() bool {
	changed := false
	for name, lin := range s.man.Lineages {
		tip0 := lin.tip()
		before := len(lin.Versions)
		lin.Versions = slices.DeleteFunc(lin.Versions, func(d string) bool {
			_, ok := s.man.Graphs[d]
			return !ok
		})
		if len(lin.Versions) == before {
			continue
		}
		changed = true
		if len(lin.Versions) == 0 {
			delete(s.man.Lineages, name)
		} else if lin.tip() != tip0 {
			lin.Quality = nil
		}
	}
	return changed
}
