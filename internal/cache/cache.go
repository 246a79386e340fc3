// Package cache implements a software model of a multi-level,
// set-associative, LRU CPU data cache. It substitutes for the
// hardware performance counters the paper reads with perf: the traced
// kernel variants in internal/algos replay their data accesses through
// a Hierarchy, which then reports the same statistics the paper's
// Tables 3-4 do (L1 references, L1 miss rate, L3 references, L3 ratio,
// overall cache-miss rate) plus a latency model for the CPU-vs-stall
// breakdown of Figure 1.
package cache

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name     string
	Size     int64 // total bytes
	LineSize int64 // bytes per line
	Ways     int   // associativity
	// Latency is the cost in cycles of a hit at this level.
	Latency int64
}

// Config describes a full hierarchy plus main memory.
type Config struct {
	Levels []LevelConfig
	// MemoryLatency is the cost in cycles of going to RAM.
	MemoryLatency int64
	// TLB, when non-nil, adds a data-TLB model: a fully-associative
	// LRU translation cache probed by every access. TLB misses are
	// the mechanism behind the wall-clock advantage of hot-vertex
	// groupings (HubSort/DBG/InDegSort) on real machines — see
	// EXPERIMENTS.md "host effect" — so modelling them lets the
	// simulator reproduce that ranking too.
	TLB *TLBConfig
}

// TLBConfig describes the translation lookaside buffer model.
type TLBConfig struct {
	Entries     int   // translation entries (fully associative)
	PageSize    int64 // bytes per page; must be a power of two
	MissLatency int64 // cycles per TLB miss (page-walk cost)
}

// DefaultTLB matches a typical 64-entry 4 KB-page L1 dTLB with a
// ~30-cycle page walk.
func DefaultTLB() *TLBConfig {
	return &TLBConfig{Entries: 64, PageSize: 4 << 10, MissLatency: 30}
}

// ReplicationMachine returns the hierarchy of the replication's
// evaluation machine: 32 KB 8-way L1, 256 KB 8-way L2, 20 MB 16-way
// L3, 64-byte lines, with the latencies from the paper's footnote
// (≈4 cycles L1, ≈12 L2, ≈42 L3, ≈250 cycles ≈62 ns RAM at 4 GHz).
func ReplicationMachine() Config {
	return Config{
		Levels: []LevelConfig{
			{Name: "L1", Size: 32 << 10, LineSize: 64, Ways: 8, Latency: 4},
			{Name: "L2", Size: 256 << 10, LineSize: 64, Ways: 8, Latency: 12},
			{Name: "L3", Size: 20 << 20, LineSize: 64, Ways: 16, Latency: 42},
		},
		MemoryLatency: 250,
	}
}

// SmallMachine returns a deliberately tiny hierarchy (4 KB L1, 32 KB
// L2, 256 KB L3) so that laptop-scale graphs exhibit the same
// pressure ratios billion-edge graphs put on a real 20 MB L3. The
// cache experiments default to it; see DESIGN.md §4.
func SmallMachine() Config {
	return Config{
		Levels: []LevelConfig{
			{Name: "L1", Size: 4 << 10, LineSize: 64, Ways: 8, Latency: 4},
			{Name: "L2", Size: 32 << 10, LineSize: 64, Ways: 8, Latency: 12},
			{Name: "L3", Size: 256 << 10, LineSize: 64, Ways: 16, Latency: 42},
		},
		MemoryLatency: 250,
	}
}

// level is one set-associative cache. Each set stores line tags in
// MRU-first order.
type level struct {
	cfg      LevelConfig
	numSets  uint64
	sets     [][]uint64
	refs     uint64
	misses   uint64
	lineBits uint
}

func newLevel(cfg LevelConfig) *level {
	if cfg.LineSize <= 0 || cfg.Ways <= 0 || cfg.Size <= 0 {
		panic("cache: non-positive level geometry")
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic("cache: line size must be a power of two")
	}
	numSets := cfg.Size / (cfg.LineSize * int64(cfg.Ways))
	if numSets == 0 {
		numSets = 1
	}
	lineBits := uint(0)
	for l := cfg.LineSize; l > 1; l >>= 1 {
		lineBits++
	}
	sets := make([][]uint64, numSets)
	for i := range sets {
		sets[i] = make([]uint64, 0, cfg.Ways)
	}
	return &level{cfg: cfg, numSets: uint64(numSets), sets: sets, lineBits: lineBits}
}

// access probes the level with a line address (addr >> lineBits).
// On hit the line moves to MRU. On miss it is inserted, evicting LRU.
// Set indexing is line mod numSets, which also handles the sliced,
// non-power-of-two LLCs of real processors.
func (l *level) access(line uint64) (hit bool) {
	l.refs++
	si := line % l.numSets
	set := l.sets[si]
	for i, tag := range set {
		if tag == line {
			// Move to front (MRU).
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	l.misses++
	if len(set) < l.cfg.Ways {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = line
	l.sets[si] = set
	return false
}

// Hierarchy is an inclusive multi-level cache with main memory behind
// it. The zero value is not usable; construct with New.
type Hierarchy struct {
	cfg      Config
	levels   []*level
	accesses uint64
	memRefs  uint64
	cycles   uint64
	lineBits uint
	observer func(line uint64)

	tlbPages  []uint64 // MRU-first page numbers; nil when disabled
	tlbBits   uint
	tlbMisses uint64
}

// SetObserver installs a callback invoked with the line address of
// every access, before the cache lookup. It lets side analyses — the
// reuse-distance profiler in internal/reuse — see the same stream the
// simulator sees. Pass nil to remove.
func (h *Hierarchy) SetObserver(fn func(line uint64)) { h.observer = fn }

// New builds a hierarchy from cfg. All levels must share one line
// size (as on real machines).
func New(cfg Config) *Hierarchy {
	if len(cfg.Levels) == 0 {
		panic("cache: hierarchy needs at least one level")
	}
	h := &Hierarchy{cfg: cfg}
	if t := cfg.TLB; t != nil {
		if t.Entries <= 0 || t.PageSize <= 0 || t.PageSize&(t.PageSize-1) != 0 {
			panic("cache: invalid TLB geometry")
		}
		h.tlbPages = make([]uint64, 0, t.Entries)
		for p := t.PageSize; p > 1; p >>= 1 {
			h.tlbBits++
		}
	}
	for i, lc := range cfg.Levels {
		if lc.LineSize != cfg.Levels[0].LineSize {
			panic("cache: levels disagree on line size")
		}
		lv := newLevel(lc)
		if i == 0 {
			h.lineBits = lv.lineBits
		}
		h.levels = append(h.levels, lv)
	}
	return h
}

// Access simulates one data access at byte address addr. The line is
// filled into every level on its way in (inclusive hierarchy), and the
// latency of the level that served the access is added to the cycle
// count.
func (h *Hierarchy) Access(addr uint64) {
	h.accesses++
	line := addr >> h.lineBits
	if h.observer != nil {
		h.observer(line)
	}
	if h.cfg.TLB != nil {
		h.probeTLB(addr >> h.tlbBits)
	}
	for _, lv := range h.levels {
		if lv.access(line) {
			h.cycles += uint64(lv.cfg.Latency)
			return
		}
	}
	h.memRefs++
	h.cycles += uint64(h.cfg.MemoryLatency)
}

// probeTLB looks the page up in the fully-associative LRU TLB,
// charging the page-walk latency on a miss.
func (h *Hierarchy) probeTLB(page uint64) {
	for i, p := range h.tlbPages {
		if p == page {
			copy(h.tlbPages[1:i+1], h.tlbPages[:i])
			h.tlbPages[0] = page
			return
		}
	}
	h.tlbMisses++
	h.cycles += uint64(h.cfg.TLB.MissLatency)
	if len(h.tlbPages) < h.cfg.TLB.Entries {
		h.tlbPages = append(h.tlbPages, 0)
	}
	copy(h.tlbPages[1:], h.tlbPages)
	h.tlbPages[0] = page
}

// Reset clears statistics and cache contents.
func (h *Hierarchy) Reset() {
	for i, lv := range h.levels {
		nl := newLevel(lv.cfg)
		h.levels[i] = nl
	}
	h.accesses, h.memRefs, h.cycles = 0, 0, 0
	h.tlbMisses = 0
	if h.tlbPages != nil {
		h.tlbPages = h.tlbPages[:0]
	}
}

// LevelStats is the per-level counter snapshot.
type LevelStats struct {
	Name   string
	Refs   uint64
	Misses uint64
}

// MissRate returns Misses/Refs, or 0 for an idle level.
func (s LevelStats) MissRate() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Refs)
}

// Report is the full statistics snapshot, mirroring the columns of
// the paper's cache tables.
type Report struct {
	Accesses  uint64       // total data accesses = L1 references
	MemRefs   uint64       // accesses served by RAM
	Cycles    uint64       // modelled total access latency
	Levels    []LevelStats // per-level refs and misses
	TLBMisses uint64       // TLB misses (0 when the TLB is disabled)
}

// Report returns the current statistics.
func (h *Hierarchy) Report() Report {
	r := Report{Accesses: h.accesses, MemRefs: h.memRefs, Cycles: h.cycles, TLBMisses: h.tlbMisses}
	for _, lv := range h.levels {
		r.Levels = append(r.Levels, LevelStats{Name: lv.cfg.Name, Refs: lv.refs, Misses: lv.misses})
	}
	return r
}

// L1MissRate is the paper's "L1-mr": fraction of accesses not served
// by L1.
func (r Report) L1MissRate() float64 {
	if len(r.Levels) == 0 {
		return 0
	}
	return r.Levels[0].MissRate()
}

// LLCRefs is the paper's "L3-ref": the number of accesses that
// reached the last cache level.
func (r Report) LLCRefs() uint64 {
	if len(r.Levels) == 0 {
		return 0
	}
	return r.Levels[len(r.Levels)-1].Refs
}

// LLCRatio is the paper's "L3-r": LLC references over L1 references.
func (r Report) LLCRatio() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.LLCRefs()) / float64(r.Accesses)
}

// MissRate is the paper's "Cache-mr": the fraction of accesses that
// had to go to main memory.
func (r Report) MissRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.MemRefs) / float64(r.Accesses)
}

// TLBMissRate returns TLB misses over accesses (0 with no TLB).
func (r Report) TLBMissRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.TLBMisses) / float64(r.Accesses)
}

// StallCycles models time lost to the memory system: total modelled
// latency minus what the same accesses would cost if every one hit L1.
func (r Report) StallCycles(cfg Config) uint64 {
	ideal := r.Accesses * uint64(cfg.Levels[0].Latency)
	if r.Cycles <= ideal {
		return 0
	}
	return r.Cycles - ideal
}

// CPUCycles models the compute component of Figure 1 as the all-hit
// cost of the access stream.
func (r Report) CPUCycles(cfg Config) uint64 {
	return r.Accesses * uint64(cfg.Levels[0].Latency)
}
