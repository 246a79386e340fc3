package store

import (
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
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
// version entry, and the new tip replaces the old one in memory.
// Appending the digest already at the tip is a no-op (idempotent
// replays). The lineage is created if the name is new; a name that
// reads as a version reference fails with ErrBadName. Returns the
// 1-based version number now at the tip.
func (s *Store) AppendVersion(name, digest string, g *graph.Graph, srcBytes int64) (int, error) {
	if base, _ := parseRef(name); base != name {
		return 0, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.tipVersionLocked(name, digest); ok {
		return v, nil
	}
	if _, _, err := s.persistGraphLocked(digest, name, g, srcBytes); err != nil {
		return 0, err
	}
	return s.advanceLocked(name, digest, g)
}

// AppendGraph is AppendVersion for a graph that has no digest yet — the
// mutation path. g is encoded once, straight into its blob file, and
// hashed on the way, so its digest is the one an upload of its binary
// encoding gets. Returns the digest, the encoded size in bytes, and the
// version number now at the tip.
func (s *Store) AppendGraph(name string, g *graph.Graph) (digest string, size int64, version int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if digest, size, err = s.persistGraphLocked("", name, g, 0); err != nil {
		return "", 0, 0, err
	}
	if v, ok := s.tipVersionLocked(name, digest); ok {
		return digest, size, v, nil
	}
	version, err = s.advanceLocked(name, digest, g)
	return digest, size, version, err
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
// it) and swaps g into residency for the tip it supersedes.
func (s *Store) advanceLocked(name, digest string, g *graph.Graph) (int, error) {
	lin := s.man.Lineages[name]
	if lin == nil {
		lin = &lineageRec{}
		s.man.Lineages[name] = lin
	}
	oldTip := lin.tip()
	lin.Versions = append(lin.Versions, digest)
	if err := s.saveManifestLocked(); err != nil {
		return 0, err
	}
	s.admitLocked(digest, g)
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

// SetQuality records the named lineage's ordering-quality state,
// clamping the dirty list to MaxDirtyTracked (overflow sticks).
func (s *Store) SetQuality(name string, q Quality) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lin := s.man.Lineages[name]
	if lin == nil || len(lin.Versions) == 0 {
		return fmt.Errorf("%w: %s", ErrUnknownLineage, name)
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
	for _, rec := range s.man.Orders {
		if rec.Graph == digest {
			out = append(out, OrderKey{Method: rec.Method, OptKey: rec.OptKey})
		}
	}
	slices.SortFunc(out, func(a, b OrderKey) int {
		if c := strings.Compare(a.Method, b.Method); c != 0 {
			return c
		}
		return strings.Compare(a.OptKey, b.OptKey)
	})
	return out
}

// persistGraphLocked writes g's CSR blob and manifest record unless
// digest is already stored — the shared write path of PutGraph,
// AppendVersion and AppendGraph. An empty digest is derived from the
// encoding as it streams to disk (srcBytes then becomes the encoded
// size), so g is encoded exactly once either way. Returns the digest
// and the encoded size (0 when the blob was already stored).
func (s *Store) persistGraphLocked(digest, name string, g *graph.Graph, srcBytes int64) (string, int64, error) {
	if _, ok := s.man.Graphs[digest]; ok {
		return digest, 0, nil
	}
	derive := digest == ""
	var fileBytes int64
	sum := crc32.NewIEEE()
	err := writeAtomicNamed(filepath.Join(s.dir, graphsDirName), "blob.tmp-*", 0o644,
		func(w io.Writer) error {
			var h hash.Hash
			ws := []io.Writer{w, sum}
			if derive {
				h = NewDigest()
				ws = append(ws, h)
			}
			cw := &countWriter{w: io.MultiWriter(ws...)}
			if err := g.WriteBinary(cw); err != nil {
				return err
			}
			fileBytes = cw.n
			if derive {
				digest = DigestSum(h)
			}
			return nil
		},
		func() string {
			if _, ok := s.man.Graphs[digest]; ok {
				return "" // derived a digest that is already stored
			}
			return s.graphPath(digest)
		})
	if err != nil {
		return "", 0, fmt.Errorf("store: persisting graph %s of %q: %w", digest, name, err)
	}
	if _, ok := s.man.Graphs[digest]; ok {
		return digest, fileBytes, nil
	}
	if derive {
		srcBytes = fileBytes
	}
	now := time.Now().UTC()
	s.man.Graphs[digest] = &graphRec{
		Name: name, Nodes: g.NumNodes(), Edges: g.NumEdges(),
		SrcBytes: srcBytes, FileBytes: fileBytes,
		CRC32: fmt.Sprintf("%08x", sum.Sum32()),
		Added: now, LastAccess: now,
	}
	return digest, fileBytes, nil
}

// healAllLineagesLocked reconciles every lineage against the graphs
// actually present (the Open path): versions whose blob records are
// gone close over, and emptied lineages disappear. Reports whether
// anything changed.
func (s *Store) healAllLineagesLocked() bool {
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

// healLineagesLocked removes a vanished digest from every lineage: a
// corrupt tip heals to the previous version, a hole in the middle
// closes over, and a lineage losing its last version disappears. A
// quality record tracking the dropped tip is cleared so the monitor
// re-baselines instead of trusting totals for a graph that no longer
// exists.
func (s *Store) healLineagesLocked(digest string) {
	for name, lin := range s.man.Lineages {
		wasTip := lin.tip() == digest
		lin.Versions = slices.DeleteFunc(lin.Versions, func(d string) bool { return d == digest })
		if len(lin.Versions) == 0 {
			delete(s.man.Lineages, name)
		} else if wasTip {
			lin.Quality = nil
		}
	}
}
