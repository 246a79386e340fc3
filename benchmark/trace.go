package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share
// OpID; the op's root span has Parent 0. A "beside" span re-runs, out
// of line and right after its parent returns, work the parent did
// inside a call the benchmark cannot open up (Executor.Run relabels and
// runs the kernel internally on a cache miss), so that work gets a
// span of its own.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	OpID   int    `json:"op_id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Beside bool   `json:"beside,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the span name's prefix up to the first dot: graph, store,
// ordering, query or kernel; "op" for the root spans.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory; they are written out once, at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (IDs start at 1).
func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, OpID: op, Parent: parent,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// do wraps fn in a span.
func (t *tracer) do(name string, op, parent int, fn func()) {
	id := t.begin(name, op, parent)
	fn()
	t.end(id)
}

// beside wraps fn in a beside span of parent.
func (t *tracer) beside(name string, op, parent int, fn func()) {
	t.do(name, op, parent, fn)
	t.spans[len(t.spans)-1].Beside = true
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time in ns, indexed like spans:
// its duration minus the part of its interval that its in-line
// children cover (overlapping children count once), minus the full
// duration of its beside children, floored at zero.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var covered, beside int64
		var iv [][2]int64
		for _, c := range kids[s.ID] {
			if c.Beside {
				beside += c.dur()
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var curLo, curHi int64 = 0, -1
		for _, x := range iv {
			if x[0] > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = max(0, s.dur()-covered-beside)
	}
	return self
}
