package memstat

import (
	"os"
	"testing"
)

// TestCollectCountsByStage: each Collect runs one forced collection and
// counts it under its own stage only.
func TestCollectCountsByStage(t *testing.T) {
	var c Collector
	before := Read(GCForced)
	c.Collect(Order)
	c.Collect(Order)
	c.Collect(Relabel)
	if got := Read(GCForced) - before; got < 3 {
		t.Fatalf("3 collections moved %s by %d", GCForced, got)
	}
	for _, s := range Stages() {
		want := map[Stage]int64{Order: 2, Relabel: 1}[s]
		if c.Count(s) != want {
			t.Errorf("%s: %d collections, want %d", s, c.Count(s), want)
		}
	}
}

// TestReadAndPeakRSS: the runtime samples read as positive numbers, an
// unknown name as 0, and the peak resident set is readable wherever
// /proc/self/status is.
func TestReadAndPeakRSS(t *testing.T) {
	for _, name := range []string{HeapObjects, HeapGoal} {
		if v := Read(name); v <= 0 {
			t.Errorf("%s = %d, want > 0", name, v)
		}
	}
	if v := Read("/no/such:bytes"); v != 0 {
		t.Errorf("an unknown sample read %d, want 0", v)
	}
	_, err := os.Stat("/proc/self/status")
	b, ok := PeakRSS()
	if ok != (err == nil) || (ok && b <= 0) {
		t.Fatalf("PeakRSS = %d, %v with /proc/self/status stat error %v", b, ok, err)
	}
}
