package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gorder/internal/graph"
	"gorder/internal/memstat"
	"gorder/internal/store"
)

// Graph ingest: uploads (POST /graphs) and -data preloads (LoadDir)
// share one path. A few-byte peek routes binary CSR to the buffered
// decoder, and everything else flows through the streaming edge-list
// parser in fixed-size blocks. The raw text of a large upload never
// exists in memory at once; peak memory is the parse buffer plus the
// edge shards plus the final CSR, which is what lets the daemon accept
// uploads far beyond what whole-body buffering would allow. The bytes
// are hashed as they stream, and the digest names the graph in the
// store, so the same content uploaded twice — under any name — keeps
// one blob.
//
// The store is the only graph catalog: every name is a lineage, and
// queries, jobs, edits and listings resolve refs through store.Lookup.

// GraphInfo is the public (JSON) description of a stored graph.
type GraphInfo struct {
	ID    string    `json:"id"`    // content hash prefix — stable across restarts
	Name  string    `json:"name"`  // name the content was first stored under
	Nodes int       `json:"nodes"` //
	Edges int64     `json:"edges"`
	Bytes int64     `json:"bytes"` // size of the source file/upload
	Added time.Time `json:"added"`
	// Resident reports whether the graph is currently held in memory;
	// OnDisk whether a persistent blob backs it (always, once stored).
	Resident bool `json:"resident"`
	OnDisk   bool `json:"on_disk"`
	// Lineage/Version/Latest are set when the lookup resolved through
	// a lineage (a bare name, name@latest, or name@vN): which lineage,
	// which version this info describes, and the lineage's current tip
	// version.
	Lineage string `json:"lineage,omitempty"`
	Version int    `json:"version,omitempty"`
	Latest  int    `json:"latest,omitempty"`
}

// graphInfo renders a catalog entry with its current residency.
func (s *Server) graphInfo(meta store.GraphMeta) GraphInfo {
	return GraphInfo{
		ID: meta.Digest, Name: meta.Name, Nodes: meta.Nodes, Edges: meta.Edges,
		Bytes: meta.SrcBytes, Added: meta.Added,
		Resident: s.cfg.Store.Resident(meta.Digest), OnDisk: true,
		Lineage: meta.Lineage, Version: meta.Version, Latest: meta.Latest,
	}
}

// tipInfo describes digest as version v, the tip just appended, of the
// named lineage.
func (s *Server) tipInfo(name, digest string, v int) GraphInfo {
	meta, _ := s.cfg.Store.Lookup(digest)
	meta.Lineage, meta.Version, meta.Latest = name, v, v
	return s.graphInfo(meta)
}

// countingReader counts bytes as they stream through, so ingest
// records the upload size without the body ever being buffered.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// badGraphError marks an ingest failure that is the input's fault —
// unreadable or unparseable bytes — rather than the store's.
type badGraphError struct{ err error }

func (e *badGraphError) Error() string { return e.err.Error() }
func (e *badGraphError) Unwrap() error { return e.err }

// ingest parses a graph (binary CSR or text edge list, sniffed) from
// r while hashing it, and appends it to the named lineage. Content
// already stored keeps its blob and only becomes the lineage's tip
// (created == false); content already at the tip changes nothing.
// Parse failures come back as *badGraphError.
func (s *Server) ingest(name string, r io.Reader) (GraphInfo, bool, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return GraphInfo{}, false, errors.New("graph name is required")
	}
	start := time.Now()
	h := store.NewDigest()
	cr := &countingReader{r: io.TeeReader(r, h)}
	g, err := graph.Read(cr)
	if err != nil {
		return GraphInfo{}, false, &badGraphError{err}
	}
	parse := time.Since(start)

	st := s.cfg.Store
	digest := store.DigestSum(h)
	// The tip moves under the mutation lock, as an edit's does: an
	// upload appended between an edit's tip read and its append would
	// fall off the chain the edit extends.
	s.mutMu.Lock()
	created := !st.Has(digest)
	oldTip, _, _, _ := st.ResolveVersion(name, 0)
	v, err := st.AppendVersion(name, digest, g, cr.n)
	if err == nil && oldTip != "" && oldTip != digest {
		s.Query.DropHub(oldTip)
	}
	s.mutMu.Unlock()
	// The parse buffer and the edge shards are garbage now, and so is the
	// parsed CSR when its content was already stored.
	s.gc.Collect(memstat.Ingest)
	if err != nil {
		return GraphInfo{}, false, err
	}
	if created {
		s.ingests.Inc()
		s.ingestMillis.Add(parse.Milliseconds())
		s.ingestEdges.Add(g.NumEdges())
		s.bytesAccepted.Add(cr.n)
	}
	return s.tipInfo(name, digest, v), created, nil
}

// handleGraphUpload serves POST /graphs.
func (s *Server) handleGraphUpload(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimSpace(r.URL.Query().Get("name"))
	if name == "" {
		s.writeError(w, http.StatusBadRequest, "missing_name",
			"upload requires a non-blank ?name= query parameter")
		return
	}
	info, created, err := s.ingest(name, http.MaxBytesReader(w, r.Body, s.cfg.MaxUpload))
	var bad *badGraphError
	switch {
	case errors.As(err, &bad):
		s.writeUploadError(w, err)
		return
	case errors.Is(err, store.ErrBadName):
		s.writeError(w, http.StatusBadRequest, "bad_name", "%v", err)
		return
	case err != nil:
		// The body parsed, so this is a server-side failure (a full or
		// unwritable data directory), never the client's graph.
		s.writeError(w, http.StatusInternalServerError, "persist_failed", "%v", err)
		return
	}
	status := http.StatusOK // deduplicated: existing graph
	if created {
		status = http.StatusCreated
		s.log.Info("graph registered", "id", info.ID, "name", name,
			"nodes", info.Nodes, "edges", info.Edges, "bytes", info.Bytes)
	}
	s.writeJSON(w, status, info)
}

// writeUploadError maps a body read or parse failure onto the
// envelope: the MaxBytesReader limit becomes a clean 413 — even when
// it surfaces mid-parse, many megabytes into a streamed body — and
// everything else is a 400.
func (s *Server) writeUploadError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.writeError(w, http.StatusRequestEntityTooLarge, "too_large",
			"upload exceeds the %d-byte limit", tooBig.Limit)
		return
	}
	s.writeError(w, http.StatusBadRequest, "bad_graph", "%v", err)
}

// graphFileExts are the dataset filename extensions LoadDir accepts.
var graphFileExts = map[string]bool{
	".bin": true, ".graph": true, ".txt": true, ".el": true, ".edges": true,
}

// LoadDir ingests every graph file in dir (non-recursive), named by
// filename stem, through the same path as uploads. Unparseable files
// abort the load — a corrupt dataset directory is a deployment error,
// not something to skip silently.
func (s *Server) LoadDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	loaded := 0
	for _, de := range entries {
		ext := filepath.Ext(de.Name())
		if de.IsDir() || !graphFileExts[ext] {
			continue
		}
		f, err := os.Open(filepath.Join(dir, de.Name()))
		if err != nil {
			return loaded, err
		}
		_, _, err = s.ingest(strings.TrimSuffix(de.Name(), ext), f)
		f.Close()
		if err != nil {
			return loaded, fmt.Errorf("loading %s: %w", de.Name(), err)
		}
		loaded++
	}
	return loaded, nil
}
