// Package memstat is the daemon's memory bookkeeping: it forces a
// collection at the end of each stage that leaves a graph-sized
// transient behind, counting them by stage, and reads the runtime's and
// the process's memory figures for /metrics.
//
// The collector paces itself on the heap it last found live, so a stage
// that allocates graph-sized scratch and drops it (the ingest parser's
// edge shards, the ordering greedy's heap and lists, the natural CSR a
// relabel build evicted) leaves that garbage on the heap until some
// later allocation crosses the goal. The next graph-sized stage then
// allocates on top of it, and the process's peak is the sum of both.
// Collecting once the transient is garbage frees it before the next
// stage starts, for a few milliseconds per stage on a heap of tens of
// MB.
package memstat

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
)

// Stage names the end of a pipeline stage that forces a collection.
type Stage int

const (
	Ingest  Stage = iota // an upload parsed and appended to its lineage
	Order                // an ordering computed by an order job
	Repair               // an ordering recomputed or extended by a repair job
	Relabel              // a relabel build that evicted the natural tip
	numStages
)

var stageNames = [numStages]string{"ingest", "order", "repair", "relabel"}

// String returns the stage's metric name.
func (s Stage) String() string { return stageNames[s] }

// Stages lists every stage, in declaration order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Collector forces collections at stage ends and counts them by stage.
// The zero value is ready.
type Collector struct {
	counts [numStages]atomic.Int64
}

// Collect runs a full collection now, the transient of stage s being
// garbage, and counts it.
func (c *Collector) Collect(s Stage) {
	runtime.GC()
	c.counts[s].Add(1)
}

// Count returns how many collections stage s has forced.
func (c *Collector) Count(s Stage) int64 { return c.counts[s].Load() }

// Runtime metric names Read samples.
const (
	HeapObjects = "/memory/classes/heap/objects:bytes"
	HeapGoal    = "/gc/heap/goal:bytes"
	GCCycles    = "/gc/cycles/total:gc-cycles"
	GCForced    = "/gc/cycles/forced:gc-cycles"
)

// Read returns the current value of the named runtime/metrics sample, a
// uint64 kind such as the constants above; 0 for a name this runtime
// does not export.
func Read(name string) int64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// PeakRSS returns the process's resident-set high-water mark in bytes
// (VmHWM in /proc/self/status), and false where that is unreadable.
func PeakRSS() (int64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		v, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		if err != nil {
			return 0, false
		}
		return kb << 10, true
	}
	return 0, false
}
