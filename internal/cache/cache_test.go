package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// tiny returns a one-level cache with 2 sets × 2 ways of 64-byte
// lines (256 bytes), small enough to reason about exactly.
func tiny() *Hierarchy {
	return New(Config{
		Levels:        []LevelConfig{{Name: "L1", Size: 256, LineSize: 64, Ways: 2, Latency: 1}},
		MemoryLatency: 100,
	})
}

func TestColdMissThenHit(t *testing.T) {
	h := tiny()
	h.Access(0)
	h.Access(0)
	h.Access(8) // same line
	r := h.Report()
	if r.Accesses != 3 {
		t.Fatalf("accesses = %d, want 3", r.Accesses)
	}
	if r.Levels[0].Misses != 1 || r.MemRefs != 1 {
		t.Fatalf("misses = %d memrefs = %d, want 1, 1", r.Levels[0].Misses, r.MemRefs)
	}
	if r.Cycles != 100+1+1 {
		t.Fatalf("cycles = %d, want 102", r.Cycles)
	}
}

func TestLRUEviction(t *testing.T) {
	h := tiny()
	// Lines 0, 2, 4 map to set 0 (even line numbers, 2 sets). With 2
	// ways, accessing 0, 2, 4 evicts 0.
	h.Access(0 * 64)
	h.Access(2 * 64)
	h.Access(4 * 64) // evicts line 0
	h.Access(0 * 64) // miss again
	r := h.Report()
	if r.Levels[0].Misses != 4 {
		t.Fatalf("misses = %d, want 4 (LRU evicted line 0)", r.Levels[0].Misses)
	}
	// Re-inserting 0 evicted 2 (LRU), leaving [0, 4]. Accessing 2
	// misses and evicts 4; accessing 4 then misses as well — the
	// classic capacity thrash on a cyclic pattern one larger than the
	// set.
	h.Access(2 * 64)
	h.Access(4 * 64)
	r = h.Report()
	if r.Levels[0].Misses != 6 {
		t.Fatalf("misses = %d, want 6", r.Levels[0].Misses)
	}
}

func TestLRUMoveToFront(t *testing.T) {
	h := tiny()
	h.Access(0 * 64)
	h.Access(2 * 64)
	h.Access(0 * 64) // refresh 0 → now 2 is LRU
	h.Access(4 * 64) // evicts 2
	h.Access(0 * 64) // must still hit
	r := h.Report()
	if r.Levels[0].Misses != 3 {
		t.Fatalf("misses = %d, want 3", r.Levels[0].Misses)
	}
}

func TestMultiLevelFill(t *testing.T) {
	h := New(Config{
		Levels: []LevelConfig{
			{Name: "L1", Size: 128, LineSize: 64, Ways: 1, Latency: 1},
			{Name: "L2", Size: 512, LineSize: 64, Ways: 2, Latency: 10},
		},
		MemoryLatency: 100,
	})
	h.Access(0)      // miss both → RAM
	h.Access(2 * 64) // maps to L1 set 0, evicts line 0 from L1; L2 keeps both
	h.Access(0)      // L1 miss, L2 hit
	r := h.Report()
	if r.MemRefs != 2 {
		t.Fatalf("memrefs = %d, want 2", r.MemRefs)
	}
	if r.Levels[1].Refs != 3 || r.Levels[1].Misses != 2 {
		t.Fatalf("L2 refs=%d misses=%d, want 3, 2", r.Levels[1].Refs, r.Levels[1].Misses)
	}
	if r.Cycles != 100+100+10 {
		t.Fatalf("cycles = %d, want 210", r.Cycles)
	}
}

func TestSequentialStreamMissRate(t *testing.T) {
	h := New(ReplicationMachine())
	// Stream 1 MB of 4-byte elements: 16 accesses per 64-byte line →
	// miss rate ≈ 1/16 at L1 (cold misses only; the stream exceeds L1).
	for i := 0; i < 1<<20; i += 4 {
		h.Access(uint64(i))
	}
	r := h.Report()
	got := r.L1MissRate()
	if got < 0.055 || got > 0.07 {
		t.Errorf("sequential stream L1 miss rate = %v, want ≈ 1/16", got)
	}
}

func TestRandomVsSequential(t *testing.T) {
	// The whole premise of the paper: random access misses far more
	// than sequential access over the same working set.
	const span = 8 << 20 // 8 MB, larger than SmallMachine's LLC
	seq := New(SmallMachine())
	for i := 0; i < 1<<18; i++ {
		seq.Access(uint64(i*4) % span)
	}
	rnd := New(SmallMachine())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<18; i++ {
		rnd.Access(uint64(rng.Intn(span)))
	}
	if rnd.Report().MissRate() < 4*seq.Report().MissRate() {
		t.Errorf("random miss rate %v not well above sequential %v",
			rnd.Report().MissRate(), seq.Report().MissRate())
	}
}

func TestReset(t *testing.T) {
	h := tiny()
	h.Access(0)
	h.Reset()
	r := h.Report()
	if r.Accesses != 0 || r.Cycles != 0 || r.MemRefs != 0 {
		t.Fatal("Reset did not clear stats")
	}
	h.Access(0)
	if h.Report().Levels[0].Misses != 1 {
		t.Fatal("Reset did not clear cache contents")
	}
}

func TestReportDerivedRates(t *testing.T) {
	h := New(ReplicationMachine())
	for i := 0; i < 1000; i++ {
		h.Access(uint64(i * 64)) // all cold misses
	}
	r := h.Report()
	if r.L1MissRate() != 1 || r.MissRate() != 1 || r.LLCRatio() != 1 {
		t.Errorf("cold-miss rates = %v %v %v, want 1 1 1",
			r.L1MissRate(), r.MissRate(), r.LLCRatio())
	}
	if r.LLCRefs() != 1000 {
		t.Errorf("LLC refs = %d, want 1000", r.LLCRefs())
	}
	cfg := ReplicationMachine()
	if r.StallCycles(cfg) != 1000*250-1000*4+0 {
		// every access cost 250; ideal 4 each
		t.Errorf("stall = %d, want %d", r.StallCycles(cfg), 1000*(250-4))
	}
	if r.CPUCycles(cfg) != 4000 {
		t.Errorf("cpu = %d, want 4000", r.CPUCycles(cfg))
	}
}

func TestConfigValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("no levels", func() { New(Config{}) })
	mustPanic("bad line size", func() {
		New(Config{Levels: []LevelConfig{{Size: 128, LineSize: 48, Ways: 2, Latency: 1}}})
	})
	mustPanic("mismatched line sizes", func() {
		New(Config{Levels: []LevelConfig{
			{Size: 128, LineSize: 64, Ways: 2, Latency: 1},
			{Size: 256, LineSize: 32, Ways: 2, Latency: 2},
		}})
	})
}

// Hits can never exceed references, misses are monotone in time, and
// total cycles are consistent with the per-level accounting.
func TestQuickCounterInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := New(SmallMachine())
		for i := 0; i < 5000; i++ {
			h.Access(uint64(rng.Intn(1 << 22)))
		}
		r := h.Report()
		if r.Levels[0].Refs != r.Accesses {
			return false
		}
		// Refs at level i+1 == misses at level i.
		for i := 0; i+1 < len(r.Levels); i++ {
			if r.Levels[i+1].Refs != r.Levels[i].Misses {
				return false
			}
		}
		if r.MemRefs != r.Levels[len(r.Levels)-1].Misses {
			return false
		}
		// Cycle accounting: sum of (hits at level i × latency_i) + mem.
		cfg := SmallMachine()
		var cycles uint64
		for i, ls := range r.Levels {
			hits := ls.Refs - ls.Misses
			cycles += hits * uint64(cfg.Levels[i].Latency)
		}
		cycles += r.MemRefs * uint64(cfg.MemoryLatency)
		return cycles == r.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestObserverSeesEveryLine(t *testing.T) {
	h := tiny()
	var lines []uint64
	h.SetObserver(func(line uint64) { lines = append(lines, line) })
	h.Access(0)
	h.Access(64)
	h.Access(65)
	if len(lines) != 3 || lines[0] != 0 || lines[1] != 1 || lines[2] != 1 {
		t.Fatalf("observer saw %v", lines)
	}
	h.SetObserver(nil)
	h.Access(0)
	if len(lines) != 3 {
		t.Fatal("nil observer still invoked")
	}
}

func TestTLBBasics(t *testing.T) {
	cfg := Config{
		Levels:        []LevelConfig{{Name: "L1", Size: 1 << 20, LineSize: 64, Ways: 8, Latency: 1}},
		MemoryLatency: 100,
		TLB:           &TLBConfig{Entries: 2, PageSize: 4096, MissLatency: 30},
	}
	h := New(cfg)
	h.Access(0)        // page 0: TLB miss
	h.Access(64)       // page 0: TLB hit
	h.Access(4096)     // page 1: miss
	h.Access(2 * 4096) // page 2: miss, evicts page 0 (LRU)
	h.Access(0)        // page 0: miss again
	r := h.Report()
	if r.TLBMisses != 4 {
		t.Fatalf("TLB misses = %d, want 4", r.TLBMisses)
	}
	if got := r.TLBMissRate(); got != 0.8 {
		t.Fatalf("TLB miss rate = %v, want 0.8", got)
	}
	// Cycle accounting includes the page walks: four distinct cache
	// lines cold-miss (the final access re-hits line 0), plus four
	// page walks.
	wantCycles := uint64(4*30) + uint64(4*100+1*1)
	if r.Cycles != wantCycles {
		t.Fatalf("cycles = %d, want %d", r.Cycles, wantCycles)
	}
}

func TestTLBDisabledByDefault(t *testing.T) {
	h := tiny()
	h.Access(0)
	h.Access(1 << 30)
	if h.Report().TLBMisses != 0 || h.Report().TLBMissRate() != 0 {
		t.Fatal("TLB active without configuration")
	}
}

func TestTLBResetAndValidation(t *testing.T) {
	cfg := Config{
		Levels:        []LevelConfig{{Name: "L1", Size: 1 << 12, LineSize: 64, Ways: 4, Latency: 1}},
		MemoryLatency: 50,
		TLB:           DefaultTLB(),
	}
	h := New(cfg)
	h.Access(0)
	h.Reset()
	if h.Report().TLBMisses != 0 {
		t.Fatal("Reset kept TLB misses")
	}
	h.Access(0)
	if h.Report().TLBMisses != 1 {
		t.Fatal("Reset did not clear TLB contents")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid TLB geometry accepted")
		}
	}()
	cfg.TLB = &TLBConfig{Entries: 4, PageSize: 3000, MissLatency: 1}
	New(cfg)
}

func TestTLBSequentialVsScattered(t *testing.T) {
	mk := func() *Hierarchy {
		return New(Config{
			Levels:        []LevelConfig{{Name: "L1", Size: 1 << 12, LineSize: 64, Ways: 4, Latency: 1}},
			MemoryLatency: 50,
			TLB:           DefaultTLB(),
		})
	}
	seq := mk()
	for i := 0; i < 1<<16; i += 8 {
		seq.Access(uint64(i))
	}
	rng := rand.New(rand.NewSource(2))
	sc := mk()
	for i := 0; i < 1<<13; i++ {
		sc.Access(uint64(rng.Intn(1 << 28)))
	}
	if sc.Report().TLBMissRate() < 10*seq.Report().TLBMissRate() {
		t.Errorf("scattered TLB rate %v not far above sequential %v",
			sc.Report().TLBMissRate(), seq.Report().TLBMissRate())
	}
}
