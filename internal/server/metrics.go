// Package server is the ordering-as-a-service layer: a graph registry,
// an asynchronous job queue with a bounded worker pool, and the HTTP
// JSON API the gorderd daemon serves. It turns the library's orderings
// and evaluators into long-running, cancellable, observable jobs — the
// surface future scaling work (sharding, batching, caching) plugs
// into. Everything is stdlib-only, matching the rest of the repo.
package server

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gorder/internal/memstat"
)

// Counter is a monotonically increasing int64 metric, safe for
// concurrent use — the hand-rolled equivalent of expvar.Int, kept
// local so the daemon controls its own export format.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be >= 0; counters only go up).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous int64 metric (queue depth, busy workers).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Metrics is a registry of named counters and gauges with a JSON
// export, served at GET /metrics.
type Metrics struct {
	start time.Time
	mu    sync.Mutex
	vars  map[string]func() int64
}

// NewMetrics returns an empty metrics registry whose uptime clock
// starts now.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), vars: make(map[string]func() int64)}
}

// Counter registers (or returns the value source of) a named counter.
func (m *Metrics) Counter(name string) *Counter {
	c := &Counter{}
	m.register(name, c.Value)
	return c
}

// Gauge registers a named gauge.
func (m *Metrics) Gauge(name string) *Gauge {
	g := &Gauge{}
	m.register(name, g.Value)
	return g
}

// Func registers a named metric computed on demand.
func (m *Metrics) Func(name string, fn func() int64) {
	m.register(name, fn)
}

func (m *Metrics) register(name string, fn func() int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.vars[name]; dup {
		panic("server: duplicate metric " + name)
	}
	m.vars[name] = fn
}

// Snapshot returns the current value of every metric plus
// uptime_seconds, in a plain map ready for JSON encoding.
func (m *Metrics) Snapshot() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.vars)+1)
	for name, fn := range m.vars {
		out[name] = fn()
	}
	out["uptime_seconds"] = int64(time.Since(m.start).Seconds())
	return out
}

// WriteJSON writes the snapshot as a single JSON object with sorted
// keys, one metric per line — diff- and grep-friendly.
func (m *Metrics) WriteJSON(w io.Writer) error {
	snap := m.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	if _, err := io.WriteString(w, "{\n"); err != nil {
		return err
	}
	for i, name := range names {
		sep := ",\n"
		if i == len(names)-1 {
			sep = "\n"
		}
		key, _ := json.Marshal(name)
		if _, err := io.WriteString(w, "  "+string(key)+": "+
			strconv.FormatInt(snap[name], 10)+sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}

// initMemory registers the memory metrics; called from New. They answer
// "what is resident" from the daemon alone: the forced collections by
// stage (gc_forced_<stage>_total), the live heap and the collector's
// goal, its cycles (forced ones too, the stage ones among them), and the
// process's resident-set high-water mark where /proc exposes it.
func (s *Server) initMemory(m *Metrics) {
	for _, stage := range memstat.Stages() {
		m.Func("gc_forced_"+stage.String()+"_total", func() int64 { return s.gc.Count(stage) })
	}
	for name, sample := range map[string]string{
		"go_heap_objects_bytes": memstat.HeapObjects,
		"go_heap_goal_bytes":    memstat.HeapGoal,
		"go_gc_cycles_total":    memstat.GCCycles,
		"go_gc_forced_total":    memstat.GCForced,
	} {
		m.Func(name, func() int64 { return memstat.Read(sample) })
	}
	if _, ok := memstat.PeakRSS(); ok {
		m.Func("process_peak_rss_bytes", func() int64 {
			b, _ := memstat.PeakRSS()
			return b
		})
	}
}
