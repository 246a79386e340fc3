package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// On-disk layout under the store directory. These names appear only in
// this package — CI greps that no other package builds paths into the
// data dir.
const (
	graphsDirName  = "graphs"
	ordersDirName  = "orders"
	resultsDirName = "results"
	manifestName   = "manifest.json"

	manifestVersion = 1
)

// graphRec is one graph blob's manifest entry: everything the daemon
// needs to serve its catalog after a restart without touching the blob.
type graphRec struct {
	Name       string    `json:"name"`        // primary display name
	Nodes      int       `json:"nodes"`       //
	Edges      int64     `json:"edges"`       //
	SrcBytes   int64     `json:"src_bytes"`   // size of the original upload
	FileBytes  int64     `json:"file_bytes"`  // size of the CSR blob on disk
	CRC32      string    `json:"crc32"`       // checksum of the blob file
	Added      time.Time `json:"added"`       //
	LastAccess time.Time `json:"last_access"` //
}

// orderRec is one ordering artifact's manifest entry.
type orderRec struct {
	Graph      string    `json:"graph"`  // graph digest the permutation belongs to
	Method     string    `json:"method"` // canonical lowercase ordering name
	OptKey     string    `json:"opt_key"`
	Bytes      int64     `json:"bytes"`
	CRC32      string    `json:"crc32"`
	Added      time.Time `json:"added"`
	LastAccess time.Time `json:"last_access"`
}

// resultRec is one materialized kernel-result artifact's manifest
// entry: a whole-graph query result (PageRank ranks, core numbers, …)
// in the query tier's binary codec, keyed by graph digest + canonical
// kernel name + canonical-params hash.
type resultRec struct {
	Graph      string    `json:"graph"`  // graph digest the result belongs to
	Kernel     string    `json:"kernel"` // canonical lowercase kernel name
	ParamKey   string    `json:"param_key"`
	Bytes      int64     `json:"bytes"`
	CRC32      string    `json:"crc32"`
	Added      time.Time `json:"added"`
	LastAccess time.Time `json:"last_access"`
}

// lineageRec is one named graph's version history, oldest first.
type lineageRec struct {
	Versions []string `json:"versions"`
	Quality  *Quality `json:"quality,omitempty"`
}

// tip returns the newest version's digest ("" for an empty history).
func (l *lineageRec) tip() string {
	if n := len(l.Versions); n > 0 {
		return l.Versions[n-1]
	}
	return ""
}

// manifest is the JSON index of everything in the store, written
// atomically on every mutation so a crash never loses or tears it.
type manifest struct {
	Version int                  `json:"version"`
	Graphs  map[string]*graphRec `json:"graphs"` // digest -> record
	// Names maps graph names to digests in manifests written before
	// Lineages existed. loadManifest migrates it into one-version
	// lineages; it is never written.
	Names  map[string]string    `json:"names,omitempty"`
	Orders map[string]*orderRec `json:"orders"` // artifact file name -> record
	// Results maps result-artifact file names to records. Omitted
	// (nil) in manifests written before the query tier existed.
	Results map[string]*resultRec `json:"results,omitempty"`
	// Lineages maps graph names to version histories. Omitted (nil) in
	// manifests written before graphs became mutable; loading such a
	// manifest synthesizes a one-version lineage per name.
	Lineages map[string]*lineageRec `json:"lineages,omitempty"`
}

func newManifest() *manifest {
	return &manifest{
		Version:  manifestVersion,
		Graphs:   make(map[string]*graphRec),
		Orders:   make(map[string]*orderRec),
		Results:  make(map[string]*resultRec),
		Lineages: make(map[string]*lineageRec),
	}
}

// loadManifest reads the manifest at path; a missing file is an empty
// store, a torn or unparseable one is an error (the atomic writer
// makes that a disk fault, not a crash artifact).
func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return newManifest(), nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: corrupt manifest %s: %w", path, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("store: manifest %s has version %d, this build reads %d",
			path, m.Version, manifestVersion)
	}
	// A null record would dereference as nil deep inside the store;
	// refuse it here, as the corruption it is.
	if err := errors.Join(nullRecord(path, "graphs", m.Graphs), nullRecord(path, "orders", m.Orders),
		nullRecord(path, "results", m.Results), nullRecord(path, "lineages", m.Lineages)); err != nil {
		return nil, err
	}
	if m.Graphs == nil {
		m.Graphs = make(map[string]*graphRec)
	}
	if m.Orders == nil {
		m.Orders = make(map[string]*orderRec)
	}
	if m.Results == nil {
		m.Results = make(map[string]*resultRec)
	}
	if m.Lineages == nil {
		m.Lineages = make(map[string]*lineageRec)
	}
	// Pre-lineage manifests: every named graph becomes a one-version
	// lineage so version-aware callers see a uniform model.
	for name, digest := range m.Names {
		if _, ok := m.Lineages[name]; !ok {
			m.Lineages[name] = &lineageRec{Versions: []string{digest}}
		}
	}
	m.Names = nil
	return &m, nil
}

// nullRecord reports a null record in one manifest section as a
// corrupt manifest.
func nullRecord[R any](path, section string, recs map[string]*R) error {
	for key, rec := range recs {
		if rec == nil {
			return fmt.Errorf("store: corrupt manifest %s: %s record %q is null", path, section, key)
		}
	}
	return nil
}

// save writes the manifest atomically.
func (m *manifest) save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
