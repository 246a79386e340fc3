// Package core implements the paper's primary contribution: the Gorder
// vertex ordering. The greedy algorithm (GO in the paper) repeatedly
// places the vertex with the highest locality score S to the last w
// placed vertices. Its priority queue is the paper's unit heap — a
// doubly linked list of vertices sorted by key, with per-key-class
// head/tail pointers, so that the only operations the algorithm needs
// (increment a key by one, decrement by one, extract the maximum) all
// run in O(1).
package core

import "fmt"

// noItem marks an empty key class in the dense head/tail indices.
// Item indices are >= 0 and the two list sentinels are n and n+1, so
// -1 is free.
const noItem = int32(-1)

// UnitHeap is the paper's O(1) priority queue over items 0..n-1 with
// integer keys. Items start with key 0 and keys never go negative —
// exactly the windowed-score maintenance regime, where a key is a sum
// of still-active +1 contributions. Keys are therefore a dense bounded
// range, and the per-key-class head/tail indices are plain slices
// indexed by key (grown on demand), not maps: every heap operation is
// a handful of array reads with no hashing.
type UnitHeap struct {
	key    []int32
	prev   []int32 // doubly linked list over 0..n-1 plus two sentinels
	next   []int32
	head   []int32 // head[k]: first item of key class k (closest to max), noItem if empty
	tail   []int32 // tail[k]: last item of key class k
	inHeap []bool
	size   int
	// top is an upper bound on the highest non-empty key class; it
	// bounds the empty-class scan in relocate and decays lazily as the
	// top classes drain.
	top      int32
	sentHead int32
	sentTail int32
}

// NewUnitHeap returns a heap containing items 0..n-1, all with key 0,
// ordered by item number (smaller items extract first among ties).
func NewUnitHeap(n int) *UnitHeap {
	h := &UnitHeap{
		key:      make([]int32, n),
		prev:     make([]int32, n+2),
		next:     make([]int32, n+2),
		head:     make([]int32, 1, 64),
		tail:     make([]int32, 1, 64),
		inHeap:   make([]bool, n),
		size:     n,
		sentHead: int32(n),
		sentTail: int32(n + 1),
	}
	last := h.sentHead
	for i := 0; i < n; i++ {
		h.next[last] = int32(i)
		h.prev[i] = last
		h.inHeap[i] = true
		last = int32(i)
	}
	h.next[last] = h.sentTail
	h.prev[h.sentTail] = last
	h.head[0], h.tail[0] = noItem, noItem
	if n > 0 {
		h.head[0], h.tail[0] = 0, int32(n-1)
	}
	return h
}

// Len returns the number of items still in the heap.
func (h *UnitHeap) Len() int { return h.size }

// Contains reports whether item is still in the heap.
func (h *UnitHeap) Contains(item int) bool { return h.inHeap[item] }

// Key returns item's current key. Valid only while the item is in the
// heap.
func (h *UnitHeap) Key(item int) int32 { return h.key[item] }

// growTo extends the dense class indices to cover key k.
func (h *UnitHeap) growTo(k int32) {
	for int(k) >= len(h.head) {
		h.head = append(h.head, noItem)
		h.tail = append(h.tail, noItem)
	}
}

func (h *UnitHeap) unlink(e int32) {
	p, nx := h.prev[e], h.next[e]
	h.next[p] = nx
	h.prev[nx] = p
}

func (h *UnitHeap) insertBefore(e, f int32) {
	p := h.prev[f]
	h.next[p] = e
	h.prev[e] = p
	h.next[e] = f
	h.prev[f] = e
}

func (h *UnitHeap) insertAfter(e, l int32) {
	nx := h.next[l]
	h.next[l] = e
	h.prev[e] = l
	h.next[e] = nx
	h.prev[nx] = e
}

// detachFromClass fixes the class head/tail pointers before e leaves
// its current key class.
func (h *UnitHeap) detachFromClass(e int32) {
	k := h.key[e]
	hd, tl := h.head[k], h.tail[k]
	switch {
	case hd == e && tl == e:
		h.head[k], h.tail[k] = noItem, noItem
	case hd == e:
		h.head[k] = h.next[e]
	case tl == e:
		h.tail[k] = h.prev[e]
	}
}

// decayTop lowers the top-class bound past drained classes.
func (h *UnitHeap) decayTop() {
	for h.top > 0 && h.head[h.top] == noItem {
		h.top--
	}
}

// Inc increases item's key by one in O(1): the item moves to the
// boundary between its old class and the class above, becoming the
// tail of the class above.
func (h *UnitHeap) Inc(item int) {
	e := int32(item)
	if !h.inHeap[item] {
		panic(fmt.Sprintf("core: Inc of item %d not in heap", item))
	}
	k := h.key[e]
	h.growTo(k + 1)
	f := h.head[k] // class is non-empty: e belongs to it
	h.detachFromClass(e)
	if f != e {
		h.unlink(e)
		h.insertBefore(e, f)
	}
	h.key[e] = k + 1
	if h.head[k+1] == noItem {
		h.head[k+1] = e
	}
	h.tail[k+1] = e
	if k+1 > h.top {
		h.top = k + 1
	}
}

// Dec decreases item's key by one in O(1), symmetric to Inc: the item
// becomes the head of the class below. Keys never go negative in the
// windowed-score regime; decrementing a zero key panics.
func (h *UnitHeap) Dec(item int) {
	e := int32(item)
	if !h.inHeap[item] {
		panic(fmt.Sprintf("core: Dec of item %d not in heap", item))
	}
	k := h.key[e]
	if k == 0 {
		panic(fmt.Sprintf("core: Dec of item %d would make its key negative", item))
	}
	l := h.tail[k]
	h.detachFromClass(e)
	if l != e {
		h.unlink(e)
		h.insertAfter(e, l)
	}
	h.key[e] = k - 1
	if h.tail[k-1] == noItem {
		h.tail[k-1] = e
	}
	h.head[k-1] = e
}

// Add moves item's key by delta in one bulk class relocation — the
// batched equivalent of |delta| individual Inc or Dec calls issued
// back to back. A positive delta appends the item to the tail of the
// target class (as a run of Incs would); a negative delta prepends it
// to the head (as a run of Decs would); delta zero is a no-op. The
// target key must not be negative.
func (h *UnitHeap) Add(item int, delta int32) {
	if !h.inHeap[item] {
		panic(fmt.Sprintf("core: Add of item %d not in heap", item))
	}
	if delta == 0 {
		return
	}
	h.relocate(int32(item), delta, delta < 0)
}

// addTail relocates e by delta, appending it to the tail of the target
// class — the batched path's stand-in for a run of Incs (the item's
// last individual bump would have been an Inc).
func (h *UnitHeap) addTail(e, delta int32) { h.relocate(e, delta, false) }

// addFront relocates e by delta, prepending it to the head of the
// target class — the batched path's stand-in for a bump run ending in
// a Dec. delta may be positive, zero, or negative: what matters for
// the within-class position is that the final individual bump would
// have been a Dec, which always prepends.
func (h *UnitHeap) addFront(e, delta int32) { h.relocate(e, delta, true) }

// relocate moves e to key class key[e]+delta in one splice. front
// selects head (Dec-like) vs tail (Inc-like) placement within the
// target class; when the target class is empty both coincide: the slot
// just below the nearest non-empty class above.
func (h *UnitHeap) relocate(e, delta int32, front bool) {
	k := h.key[e]
	nk := k + delta
	if nk < 0 {
		panic(fmt.Sprintf("core: Add of item %d would make its key %d negative", e, nk))
	}
	h.growTo(nk)
	h.detachFromClass(e)
	h.unlink(e)
	h.key[e] = nk
	if front {
		if hd := h.head[nk]; hd != noItem {
			h.insertBefore(e, hd)
			h.head[nk] = e
			return
		}
	} else {
		if tl := h.tail[nk]; tl != noItem {
			h.insertAfter(e, tl)
			h.tail[nk] = e
			return
		}
	}
	// Empty target class: the classes are contiguous runs of the list
	// in descending key order, so the slot is right after the tail of
	// the nearest non-empty class above nk — or the global front when
	// nothing is above.
	j := nk + 1
	for j <= h.top && h.head[j] == noItem {
		j++
	}
	if j <= h.top {
		h.insertAfter(e, h.tail[j])
	} else {
		h.insertAfter(e, h.sentHead)
	}
	h.head[nk], h.tail[nk] = e, e
	if nk > h.top {
		h.top = nk
	}
}

// ExtractMax removes and returns an item with the maximum key, or
// ok=false if the heap is empty. Among equal keys the item that has
// been at the front longest is taken, which makes extraction
// deterministic.
func (h *UnitHeap) ExtractMax() (item int, key int32, ok bool) {
	e := h.next[h.sentHead]
	if e == h.sentTail {
		return 0, 0, false
	}
	h.detachFromClass(e)
	h.unlink(e)
	h.inHeap[e] = false
	h.size--
	h.decayTop()
	return int(e), h.key[e], true
}

// Delete removes an arbitrary item from the heap (used to take the
// ordering's already-placed prefix out of the candidates).
func (h *UnitHeap) Delete(item int) {
	e := int32(item)
	if !h.inHeap[item] {
		panic(fmt.Sprintf("core: Delete of item %d not in heap", item))
	}
	h.detachFromClass(e)
	h.unlink(e)
	h.inHeap[item] = false
	h.size--
	h.decayTop()
}
