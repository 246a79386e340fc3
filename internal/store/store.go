// Package store is gorderd's persistence layer: a disk-backed,
// content-addressed store for graph CSR blobs and ordering-permutation
// artifacts, plus an in-memory residency manager with a byte budget
// and LRU eviction.
//
// The point of the store is the paper's amortization argument: an
// ordering's one-time cost only pays off if it outlives the process
// that computed it. Graph blobs live under <dir>/graphs/<digest> in
// the binary CSR format (v1, with a CRC32 footer), ordering artifacts
// under <dir>/orders/<digest>-<method>-<optkey> as permutation text,
// and a crash-safe manifest.json (written temp-file + fsync + rename)
// records names, sizes, checksums, and last-access times — so a
// restarted daemon serves its full catalog and answers repeat ordering
// jobs without recomputing.
//
// Every graph name is a lineage (v1..vN), and Lookup is the one place
// a graph reference — digest, name, name@vN, name@latest — resolves.
//
// Residency: the store holds natural-order CSRs, and only of tips — the
// newest version of each lineage — up to a configurable byte budget
// (graph.MemoryBytes accounting). Appending a version replaces the old
// tip in memory rather than adding a second copy, so a lineage under
// sustained edits costs one version, not its history. Which form of a
// tip is in memory depends on how it was last served:
//
//   - a tip no query has relabeled keeps its natural CSR here;
//   - a tip whose relabeled copy a query built holds only that copy, in
//     the query tier's graph cache: the query tier calls Evict once the
//     copy is cached, because kernels never read the natural layout
//     again;
//   - a tip an edit derived from a relabeled tip is held only as the
//     relabeled copy the edit built: its blob is patched on disk from
//     the parent's (PatchGraph) and AppendVersion admits nothing, since
//     queries and the next edit both read the relabeled copy.
//
// Least-recently-used tips are evicted first when the budget is
// exceeded. An evicted graph stays on disk and is transparently
// reloaded (and re-admitted) on next use via the fast ReadBinaryBytes
// path. Superseded versions (name@vK, a query pinned just before an
// edit) reload on demand and are served without being re-admitted. A
// graph bigger than the whole budget is served without being cached,
// so resident bytes never exceed the budget. Resident and ResidentBytes
// count natural CSRs only.
//
// All file paths under the store directory are built in this package
// only; CI enforces that no other package reaches into the data dir.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gorder/internal/graph"
	"gorder/internal/order"
)

// ErrUnknownGraph reports a digest the store has no record of.
var ErrUnknownGraph = errors.New("store: unknown graph")

// ErrCorrupt reports a stored blob that failed its integrity checks
// (truncated, checksum mismatch, or undecodable). The store drops the
// blob and its manifest record before returning this, so the caller
// should drop its own reference and let the content be re-uploaded.
var ErrCorrupt = errors.New("store: stored blob is corrupt")

// Config configures a Store.
type Config struct {
	// Dir is the store directory; created (with its graphs/ and
	// orders/ subdirectories) if missing.
	Dir string
	// MemBudget caps the bytes of graphs held resident in memory
	// (graph.MemoryBytes accounting). <= 0 means unlimited.
	MemBudget int64
}

// GraphMeta is the catalog view of one stored graph, reconstructed
// from the manifest without touching the blob.
type GraphMeta struct {
	Digest    string
	Name      string // primary display name
	Nodes     int
	Edges     int64
	SrcBytes  int64 // size of the original upload
	FileBytes int64 // size of the CSR blob on disk
	Added     time.Time
	// Lineage, Version and Latest are set when Lookup resolved the
	// graph through a lineage (a bare name, name@latest, or name@vN):
	// which lineage, which version the meta describes, and the
	// lineage's tip version.
	Lineage string
	Version int
	Latest  int
}

func metaOf(digest string, rec *graphRec) GraphMeta {
	return GraphMeta{
		Digest: digest, Name: rec.Name, Nodes: rec.Nodes, Edges: rec.Edges,
		SrcBytes: rec.SrcBytes, FileBytes: rec.FileBytes, Added: rec.Added,
	}
}

// residentGraph is one in-memory graph plus its LRU bookkeeping.
type residentGraph struct {
	g     *graph.Graph
	bytes int64
	seq   int64 // last-touch tick; smallest = least recently used
}

// Store is safe for concurrent use. Disk reads of graph blobs happen
// outside the lock, so a cold load does not stall resident lookups.
type Store struct {
	dir    string
	budget int64

	mu            sync.Mutex
	man           *manifest
	orders        map[string][]string // graph digest -> its files in man.Orders
	resident      map[string]*residentGraph
	residentBytes int64
	lruSeq        int64

	hits         atomic.Int64 // ordering-artifact cache hits
	misses       atomic.Int64 // ordering-artifact cache misses
	evictions    atomic.Int64 // graphs evicted from residency
	reloads      atomic.Int64 // graphs reloaded from disk after eviction/restart
	resultHits   atomic.Int64 // kernel-result artifact hits
	resultMisses atomic.Int64 // kernel-result artifact misses
}

// Open creates or reopens the store at cfg.Dir. Manifest entries
// whose blob file has vanished are dropped, so the catalog the daemon
// advertises is always servable.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	for _, d := range []string{cfg.Dir, filepath.Join(cfg.Dir, graphsDirName),
		filepath.Join(cfg.Dir, ordersDirName), filepath.Join(cfg.Dir, resultsDirName)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	man, err := loadManifest(filepath.Join(cfg.Dir, manifestName))
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:      cfg.Dir,
		budget:   cfg.MemBudget,
		man:      man,
		orders:   make(map[string][]string),
		resident: make(map[string]*residentGraph),
	}
	// Reconcile the manifest against the blob files actually present.
	dropped := false
	for digest := range man.Graphs {
		if _, err := os.Stat(s.graphPath(digest)); err != nil {
			delete(man.Graphs, digest)
			dropped = true
		}
	}
	// A vanished tip heals its lineage to the previous surviving
	// version rather than losing the name.
	if s.healLineagesLocked() {
		dropped = true
	}
	for file, rec := range man.Orders {
		_, statErr := os.Stat(filepath.Join(s.dir, ordersDirName, file))
		_, graphOK := man.Graphs[rec.Graph]
		if statErr != nil || !graphOK {
			delete(man.Orders, file)
			dropped = true
			continue
		}
		s.indexOrderLocked(file, rec.Graph)
	}
	for file, rec := range man.Results {
		_, statErr := os.Stat(filepath.Join(s.dir, resultsDirName, file))
		_, graphOK := man.Graphs[rec.Graph]
		if statErr != nil || !graphOK {
			delete(man.Results, file)
			dropped = true
		}
	}
	if dropped {
		if err := s.saveManifestLocked(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Close flushes the manifest so in-memory last-access updates survive.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saveManifestLocked()
}

func (s *Store) graphPath(digest string) string {
	return filepath.Join(s.dir, graphsDirName, digest)
}

func (s *Store) saveManifestLocked() error {
	return s.man.save(filepath.Join(s.dir, manifestName))
}

// NewDigest returns the running hash behind content digests. Uploads
// hash their body as it streams and PatchGraph hashes a new version's
// binary encoding as it is written, so the same bytes get the same
// digest on either path.
func NewDigest() hash.Hash { return sha256.New() }

// DigestSum formats h's running hash as a content digest: the first 16
// hex digits of the SHA-256 — short enough for URLs, long enough that
// collisions are out of the question at any realistic fleet size.
func DigestSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }

// ---- graph blobs and residency ------------------------------------------

// Catalog returns every stored graph's metadata, sorted by name then
// digest.
func (s *Store) Catalog() []GraphMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GraphMeta, 0, len(s.man.Graphs))
	for digest, rec := range s.man.Graphs {
		out = append(out, metaOf(digest, rec))
	}
	slices.SortFunc(out, func(a, b GraphMeta) int {
		if c := strings.Compare(a.Name, b.Name); c != 0 {
			return c
		}
		return strings.Compare(a.Digest, b.Digest)
	})
	return out
}

// PutGraph persists g under digest (the content hash of the source
// bytes) as the next version of the named lineage: AppendVersion
// without the version number.
func (s *Store) PutGraph(digest, name string, g *graph.Graph, srcBytes int64) error {
	_, err := s.AppendVersion(name, digest, g, srcBytes)
	return err
}

// GetGraph returns the graph stored under digest: from residency when
// warm, otherwise reloaded from its blob — and re-admitted under the
// budget if it is a tip; a superseded version is served without being
// cached. A blob that fails integrity checks is dropped from the store
// and reported as ErrCorrupt.
func (s *Store) GetGraph(digest string) (*graph.Graph, error) {
	s.mu.Lock()
	if rg, ok := s.resident[digest]; ok {
		s.lruSeq++
		rg.seq = s.lruSeq
		g := rg.g
		s.mu.Unlock()
		return g, nil
	}
	rec, ok := s.man.Graphs[digest]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownGraph, digest)
	}
	rec.LastAccess = time.Now().UTC()
	s.mu.Unlock()

	data, err := os.ReadFile(s.graphPath(digest))
	if err != nil {
		s.dropGraph(digest)
		return nil, fmt.Errorf("%w: graph %s: %v", ErrCorrupt, digest, err)
	}
	g, err := graph.ReadBinaryBytes(data)
	if err != nil {
		if errors.Is(err, graph.ErrBadMagic) {
			// Format mismatch, not bit rot: the blob was never a gorder
			// binary graph. Leave it for inspection.
			return nil, fmt.Errorf("store: graph %s blob has a foreign format: %w", digest, err)
		}
		// Truncation or checksum mismatch: the blob is damaged. Drop it
		// so the content can be re-uploaded under the same digest.
		s.dropGraph(digest)
		return nil, fmt.Errorf("%w: graph %s: %v", ErrCorrupt, digest, err)
	}
	s.reloads.Add(1)
	s.mu.Lock()
	if s.isTipLocked(digest) {
		s.admitLocked(digest, g)
	}
	s.mu.Unlock()
	return g, nil
}

// IsTip reports whether digest is the newest version of some lineage.
// Only tips stay resident, and the query tier caches relabelings of
// tips only, for the same reason.
func (s *Store) IsTip(digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.isTipLocked(digest)
}

func (s *Store) isTipLocked(digest string) bool {
	for _, lin := range s.man.Lineages {
		if lin.tip() == digest {
			return true
		}
	}
	return false
}

// releaseLocked drops digest from residency once it is no longer a
// tip — an append superseded it — so a lineage holds one version in
// memory, not its history.
func (s *Store) releaseLocked(digest string) {
	rg, ok := s.resident[digest]
	if !ok || s.isTipLocked(digest) {
		return
	}
	s.residentBytes -= rg.bytes
	delete(s.resident, digest)
}

// Evict drops digest's natural graph from residency, counted as an
// eviction; its blob stays on disk, so the next GetGraph reloads it.
// The query tier calls it once a tip's relabeled copy is cached, since
// kernels then run on that copy and the natural layout sits idle.
func (s *Store) Evict(digest string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictLocked(digest)
}

// evictLocked drops digest from residency, counted as an eviction.
func (s *Store) evictLocked(digest string) {
	rg, ok := s.resident[digest]
	if !ok {
		return
	}
	s.residentBytes -= rg.bytes
	delete(s.resident, digest)
	s.evictions.Add(1)
}

// Resident reports whether digest's graph is currently in memory.
func (s *Store) Resident(digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.resident[digest]
	return ok
}

// Has reports whether digest has a stored blob.
func (s *Store) Has(digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.man.Graphs[digest]
	return ok
}

// admitLocked makes g resident and evicts least-recently-used others
// until the budget holds. A graph larger than the entire budget is
// never admitted — callers still get it, it just is not cached — so
// resident bytes stay <= budget.
func (s *Store) admitLocked(digest string, g *graph.Graph) {
	if rg, ok := s.resident[digest]; ok {
		s.lruSeq++
		rg.seq = s.lruSeq
		return
	}
	size := g.MemoryBytes()
	if s.budget > 0 && size > s.budget {
		return
	}
	s.lruSeq++
	s.resident[digest] = &residentGraph{g: g, bytes: size, seq: s.lruSeq}
	s.residentBytes += size
	if s.budget <= 0 {
		return
	}
	for s.residentBytes > s.budget {
		victim := ""
		var oldest int64
		for d, rg := range s.resident {
			if d == digest {
				continue
			}
			if victim == "" || rg.seq < oldest {
				victim, oldest = d, rg.seq
			}
		}
		if victim == "" {
			return
		}
		s.evictLocked(victim)
	}
}

// dropGraph removes a damaged graph: blob, residency, its ordering
// artifacts, and the manifest records. Lineages containing the digest
// heal, so a corrupt tip repoints its name to the previous version
// instead of erasing the whole history.
func (s *Store) dropGraph(digest string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rg, ok := s.resident[digest]; ok {
		s.residentBytes -= rg.bytes
		delete(s.resident, digest)
	}
	delete(s.man.Graphs, digest)
	s.healLineagesLocked()
	for _, file := range s.orders[digest] {
		os.Remove(filepath.Join(s.dir, ordersDirName, file))
		delete(s.man.Orders, file)
	}
	delete(s.orders, digest)
	for file, rec := range s.man.Results {
		if rec.Graph == digest {
			os.Remove(filepath.Join(s.dir, resultsDirName, file))
			delete(s.man.Results, file)
		}
	}
	os.Remove(s.graphPath(digest))
	s.saveManifestLocked()
}

// ---- ordering artifacts -------------------------------------------------

// orderFileName is the artifact naming scheme:
// <graph-digest>-<method>-<options-hash>.
func orderFileName(graphDigest, method, optKey string) string {
	return graphDigest + "-" + method + "-" + optKey
}

// PutOrder persists a computed permutation for (graph, method,
// canonical-options) so future identical jobs are served from disk.
func (s *Store) PutOrder(graphDigest, method, optKey string, perm order.Permutation) error {
	file := orderFileName(graphDigest, method, optKey)
	var n int64
	sum := crc32.NewIEEE()
	path := filepath.Join(s.dir, ordersDirName, file)
	// The rename and the manifest record that names the new bytes happen
	// under one hold of mu, so GetOrder never sees a file and a record
	// that disagree and takes a replacement for corruption.
	locked := false
	err := writeAtomicNamed(filepath.Dir(path), file+".tmp-*", 0o644, func(w io.Writer) error {
		var err error
		n, err = perm.WriteTo(io.MultiWriter(w, sum))
		return err
	}, func() string {
		s.mu.Lock()
		locked = true
		return path
	})
	if locked {
		defer s.mu.Unlock()
	}
	if err != nil {
		return fmt.Errorf("store: persisting ordering %s: %w", file, err)
	}
	now := time.Now().UTC()
	s.man.Orders[file] = &orderRec{
		Graph: graphDigest, Method: method, OptKey: optKey,
		Bytes: n, CRC32: fmt.Sprintf("%08x", sum.Sum32()),
		Added: now, LastAccess: now,
	}
	s.indexOrderLocked(file, graphDigest)
	return s.saveManifestLocked()
}

// GetOrder looks up a cached permutation. wantLen guards against an
// artifact computed for different content under a colliding key; any
// integrity failure silently invalidates the artifact (it will simply
// be recomputed). The hit/miss counters feed gorderd's
// store_hits_total / store_misses_total metrics.
//
// The file is read without the lock. A failed check is re-run under
// it before anything is dropped: PutOrder may have replaced the file
// after the record was read, and under the lock file and record agree.
func (s *Store) GetOrder(graphDigest, method, optKey string, wantLen int) (order.Permutation, bool) {
	file := orderFileName(graphDigest, method, optKey)
	path := filepath.Join(s.dir, ordersDirName, file)
	s.mu.Lock()
	rec, ok := s.man.Orders[file]
	if !ok {
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	rec.LastAccess = time.Now().UTC()
	wantCRC := rec.CRC32
	s.mu.Unlock()

	perm, err := readOrder(path, wantCRC, wantLen)
	if err != nil {
		s.mu.Lock()
		if rec, ok = s.man.Orders[file]; ok {
			if perm, err = readOrder(path, rec.CRC32, wantLen); err != nil {
				delete(s.man.Orders, file)
				s.unindexOrderLocked(file, graphDigest)
				os.Remove(path)
				s.saveManifestLocked()
			}
		}
		s.mu.Unlock()
		if !ok || err != nil {
			s.misses.Add(1)
			return nil, false
		}
	}
	s.hits.Add(1)
	return perm, true
}

// indexOrderLocked files an artifact under its graph's digest, once.
// s.orders mirrors man.Orders by digest, so the per-query LatestOrder
// and the per-edit OrdersFor read one graph's artifacts instead of
// scanning every artifact stored; every change to man.Orders passes
// through here or unindexOrderLocked.
func (s *Store) indexOrderLocked(file, digest string) {
	if !slices.Contains(s.orders[digest], file) {
		s.orders[digest] = append(s.orders[digest], file)
	}
}

// unindexOrderLocked removes one artifact from the digest index.
func (s *Store) unindexOrderLocked(file, digest string) {
	files := slices.DeleteFunc(s.orders[digest], func(f string) bool { return f == file })
	if len(files) == 0 {
		delete(s.orders, digest)
		return
	}
	s.orders[digest] = files
}

// readOrder reads and checks one permutation artifact: its bytes must
// match wantCRC and it must cover wantLen vertices.
func readOrder(path, wantCRC string, wantLen int) (order.Permutation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)) != wantCRC {
		return nil, errors.New("artifact checksum mismatch")
	}
	perm, err := order.ReadPermutation(bytes.NewReader(data))
	if err == nil && len(perm) != wantLen {
		err = fmt.Errorf("artifact covers %d vertices, want %d", len(perm), wantLen)
	}
	return perm, err
}

// LatestOrder reports the most recently used ordering artifact stored
// for graphDigest — the "best available ordering" the query tier falls
// back to when a request does not name one. A non-empty method
// restricts the scan to that ordering method (for requests that name
// one explicitly). Ties break on Added time then file name, so the
// choice is deterministic.
func (s *Store) LatestOrder(graphDigest, method string) (string, string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var bestFile string
	var best *orderRec
	for _, file := range s.orders[graphDigest] {
		rec := s.man.Orders[file]
		if method != "" && rec.Method != method {
			continue
		}
		if best == nil ||
			rec.LastAccess.After(best.LastAccess) ||
			(rec.LastAccess.Equal(best.LastAccess) &&
				(rec.Added.After(best.Added) ||
					(rec.Added.Equal(best.Added) && file > bestFile))) {
			best, bestFile = rec, file
		}
	}
	if best == nil {
		return "", "", false
	}
	return best.Method, best.OptKey, true
}

// ---- kernel-result artifacts --------------------------------------------

// resultFileName is the materialized-result naming scheme:
// <graph-digest>-<kernel>-<params-hash>.
func resultFileName(graphDigest, kernel, paramKey string) string {
	return graphDigest + "-" + kernel + "-" + paramKey
}

// PutResult persists an encoded whole-graph kernel result for (graph,
// kernel, canonical-params) so repeat queries survive a restart. data
// is opaque to the store (the query tier owns the codec); integrity is
// the store's CRC.
func (s *Store) PutResult(graphDigest, kernel, paramKey string, data []byte) error {
	s.mu.Lock()
	_, known := s.man.Graphs[graphDigest]
	s.mu.Unlock()
	if !known {
		return fmt.Errorf("%w: %s", ErrUnknownGraph, graphDigest)
	}
	file := resultFileName(graphDigest, kernel, paramKey)
	err := WriteFileAtomic(filepath.Join(s.dir, resultsDirName, file), 0o644, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("store: persisting result %s: %w", file, err)
	}
	now := time.Now().UTC()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.man.Results[file] = &resultRec{
		Graph: graphDigest, Kernel: kernel, ParamKey: paramKey,
		Bytes: int64(len(data)), CRC32: fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)),
		Added: now, LastAccess: now,
	}
	return s.saveManifestLocked()
}

// GetResult loads a materialized kernel result. Any integrity failure
// silently invalidates the artifact — it is dropped so the query tier
// simply recomputes and re-materializes, mirroring the corrupt-graph
// behaviour.
func (s *Store) GetResult(graphDigest, kernel, paramKey string) ([]byte, bool) {
	file := resultFileName(graphDigest, kernel, paramKey)
	s.mu.Lock()
	rec, ok := s.man.Results[file]
	if !ok {
		s.mu.Unlock()
		s.resultMisses.Add(1)
		return nil, false
	}
	rec.LastAccess = time.Now().UTC()
	wantCRC := rec.CRC32
	s.mu.Unlock()

	path := filepath.Join(s.dir, resultsDirName, file)
	data, err := os.ReadFile(path)
	if err == nil && fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)) != wantCRC {
		err = errors.New("artifact checksum mismatch")
	}
	if err != nil {
		s.mu.Lock()
		delete(s.man.Results, file)
		os.Remove(path)
		s.saveManifestLocked()
		s.mu.Unlock()
		s.resultMisses.Add(1)
		return nil, false
	}
	s.resultHits.Add(1)
	return data, true
}

// ---- metrics ------------------------------------------------------------

// Hits returns the ordering-artifact cache hit count.
func (s *Store) Hits() int64 { return s.hits.Load() }

// Misses returns the ordering-artifact cache miss count.
func (s *Store) Misses() int64 { return s.misses.Load() }

// Evictions returns how many graphs have been evicted from residency.
func (s *Store) Evictions() int64 { return s.evictions.Load() }

// Reloads returns how many graphs were reloaded from disk.
func (s *Store) Reloads() int64 { return s.reloads.Load() }

// ResidentBytes returns the bytes of graphs currently held in memory.
func (s *Store) ResidentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.residentBytes
}

// GraphCount returns the number of stored graphs.
func (s *Store) GraphCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.man.Graphs))
}

// OrderCount returns the number of stored ordering artifacts.
func (s *Store) OrderCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.man.Orders))
}

// ResultCount returns the number of materialized kernel-result artifacts.
func (s *Store) ResultCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.man.Results))
}

// ResultHits returns the materialized-result artifact hit count.
func (s *Store) ResultHits() int64 { return s.resultHits.Load() }

// ResultMisses returns the materialized-result artifact miss count.
func (s *Store) ResultMisses() int64 { return s.resultMisses.Load() }

// countWriter counts bytes on their way to w and keeps the first
// error w returned, so a caller can tell a failed write from a failed
// read feeding it.
type countWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	if err != nil && c.err == nil {
		c.err = err
	}
	return n, err
}
