package core

// maxQueue is the priority-queue contract the per-bump reference
// greedy (orderReference) needs; both UnitHeap and lazyHeap satisfy
// it. Production code does not dispatch through it: the greedy loop is
// specialised on *UnitHeap.
type maxQueue interface {
	Len() int
	Contains(item int) bool
	Key(item int) int32
	Inc(item int)
	Dec(item int)
	Delete(item int)
	ExtractMax() (item int, key int32, ok bool)
}

// lazyHeap is the ablation alternative to the unit heap: a standard
// binary max-heap with lazy entries. Inc/Dec adjust the authoritative
// key array and push a fresh entry on increments; stale entries are
// discarded at extraction time. The paper argues the unit heap's O(1)
// updates matter because the greedy algorithm performs a key update
// per edge-relation per window slide; BenchmarkAblationQueue measures
// that claim by running orderReference over each queue.
type lazyHeap struct {
	key   []int32
	alive []bool
	size  int
	entry []lazyEntry
}

type lazyEntry struct {
	key  int32
	item int32
}

func newLazyHeap(n int) *lazyHeap {
	h := &lazyHeap{
		key:   make([]int32, n),
		alive: make([]bool, n),
		size:  n,
		entry: make([]lazyEntry, 0, 2*n),
	}
	// Seed entries in reverse so ties pop lowest item first (matching
	// the initial unit-heap order closely enough for tests).
	for i := n - 1; i >= 0; i-- {
		h.alive[i] = true
		h.push(lazyEntry{0, int32(i)})
	}
	return h
}

func (h *lazyHeap) Len() int            { return h.size }
func (h *lazyHeap) Contains(i int) bool { return h.alive[i] }
func (h *lazyHeap) Key(i int) int32     { return h.key[i] }

func (h *lazyHeap) Inc(item int) {
	h.key[item]++
	h.push(lazyEntry{h.key[item], int32(item)})
}

// Dec lowers the key without pushing: the stale higher entry is
// filtered at pop time by comparing against the authoritative key.
func (h *lazyHeap) Dec(item int) { h.key[item]-- }

// Add moves item's key by delta in one step — the counterpart of
// UnitHeap.Add, so the cross-implementation fuzz test can drive both
// queues through identical op sequences. A raised key pushes one fresh
// entry; a lowered key is corrected lazily at extraction time.
func (h *lazyHeap) Add(item int, delta int32) {
	h.key[item] += delta
	if delta > 0 {
		h.push(lazyEntry{h.key[item], int32(item)})
	}
}

func (h *lazyHeap) Delete(item int) {
	h.alive[item] = false
	h.size--
}

func (h *lazyHeap) ExtractMax() (item int, key int32, ok bool) {
	for len(h.entry) > 0 {
		top := h.entry[0]
		h.pop()
		if h.alive[top.item] && h.key[top.item] == top.key {
			h.alive[top.item] = false
			h.size--
			return int(top.item), top.key, true
		}
		// Stale or dead entry; a live item whose key decreased has no
		// matching entry left, so re-push the corrected one lazily.
		if h.alive[top.item] && h.key[top.item] < top.key {
			h.push(lazyEntry{h.key[top.item], top.item})
		}
	}
	return 0, 0, false
}

// less orders entries by key descending, then item ascending, so the
// heap is deterministic.
func (h *lazyHeap) less(a, b lazyEntry) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	return a.item < b.item
}

func (h *lazyHeap) push(e lazyEntry) {
	h.entry = append(h.entry, e)
	i := len(h.entry) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.entry[i], h.entry[p]) {
			break
		}
		h.entry[i], h.entry[p] = h.entry[p], h.entry[i]
		i = p
	}
}

func (h *lazyHeap) pop() {
	last := len(h.entry) - 1
	h.entry[0] = h.entry[last]
	h.entry = h.entry[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.entry) && h.less(h.entry[l], h.entry[best]) {
			best = l
		}
		if r < len(h.entry) && h.less(h.entry[r], h.entry[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.entry[i], h.entry[best] = h.entry[best], h.entry[i]
		i = best
	}
}
