package server

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net/http"
	"strings"
	"time"

	"gorder/internal/graph"
)

// Streaming graph ingest: POST /graphs parses the body incrementally
// — a few-byte peek routes binary CSR to the buffered decoder, and
// everything else flows through the streaming edge-list parser in
// fixed-size blocks. The raw text of a large upload never exists in
// memory at once; peak memory is the parse buffer plus the edge
// shards plus the final CSR, which is what lets the daemon accept
// uploads far beyond what whole-body buffering would allow. The body
// is hashed as it streams so the resulting graph gets the exact
// content digest a buffered upload of the same bytes gets — dedup
// across the two paths stays intact.

// countingReader counts bytes as they stream through, so the registry
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

// handleGraphUpload serves POST /graphs.
func (s *Server) handleGraphUpload(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimSpace(r.URL.Query().Get("name"))
	if name == "" {
		s.writeError(w, http.StatusBadRequest, "missing_name",
			"upload requires a non-blank ?name= query parameter")
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUpload)
	br := bufio.NewReaderSize(body, 32<<10)
	prefix, err := br.Peek(8)
	if err != nil && err != io.EOF {
		s.writeUploadError(w, err)
		return
	}
	h := sha256.New()
	cr := &countingReader{r: io.TeeReader(br, h)}
	start := time.Now()
	var g *graph.Graph
	if graph.SniffBinary(prefix) {
		// Binary CSR is already the in-memory layout; its decoder needs
		// the packed arrays whole, and the format is compact enough that
		// buffering it under MaxUpload is the cheap path.
		data, rerr := io.ReadAll(cr)
		if rerr != nil {
			s.writeUploadError(w, rerr)
			return
		}
		g, err = graph.ReadBinaryBytes(data)
	} else {
		g, err = graph.ReadEdgeListStream(cr)
	}
	if err != nil {
		s.writeUploadError(w, err)
		return
	}
	id := hex.EncodeToString(h.Sum(nil)[:8])
	info, created, err := s.Reg.AddParsed(name, id, g, cr.n, time.Since(start))
	if err != nil {
		// The body parsed, so this is a server-side failure (a full or
		// unwritable data directory), never the client's graph.
		s.writeError(w, http.StatusInternalServerError, "persist_failed", "%v", err)
		return
	}
	status := http.StatusOK // deduplicated: existing graph
	if created {
		status = http.StatusCreated
		s.log.Info("graph registered", "id", info.ID, "name", info.Name,
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
