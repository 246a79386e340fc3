package query

import (
	"sync"
	"sync/atomic"
)

// byteLRU is a byte-budgeted LRU over string keys, shared by the
// executor's result cache and relabeled-graph cache. It mirrors the
// store's residency discipline: admit whatever is put, then evict
// least-recently-used entries until the budget holds (a single entry
// larger than the whole budget is still admitted — evicting the thing
// just computed would only guarantee recomputation). What is put at
// all is the executor's call, under one rule for every kind of entry:
// an entry is put on its second use, per its cache's doorkeeper, so
// nothing used once is ever held.
type byteLRU struct {
	mu        sync.Mutex
	budget    int64
	bytes     int64
	entries   map[string]*lruEntry
	head      *lruEntry // most recently used
	tail      *lruEntry // least recently used
	evictions int64
}

type lruEntry struct {
	key        string
	value      any
	size       int64
	prev, next *lruEntry
}

func newByteLRU(budget int64) *byteLRU {
	return &byteLRU{budget: budget, entries: make(map[string]*lruEntry)}
}

// get returns the cached value and marks it most recently used.
func (c *byteLRU) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.value, true
}

// put admits (or refreshes) key and evicts down to the budget.
func (c *byteLRU) put(key string, value any, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.bytes += size - e.size
		e.value, e.size = value, size
		c.unlink(e)
		c.pushFront(e)
	} else {
		e = &lruEntry{key: key, value: value, size: size}
		c.entries[key] = e
		c.bytes += size
		c.pushFront(e)
	}
	for c.bytes > c.budget && c.tail != nil && c.tail != c.head {
		ev := c.tail
		c.unlink(ev)
		delete(c.entries, ev.key)
		c.bytes -= ev.size
		c.evictions++
	}
}

// remove drops key if present, reporting whether it was held. The
// executor uses it to invalidate relabeled graphs whose ordering
// artifact a repair job has just replaced.
func (c *byteLRU) remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	c.unlink(e)
	delete(c.entries, e.key)
	c.bytes -= e.size
	return true
}

func (c *byteLRU) stats() (entries int, bytes, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.bytes, c.evictions
}

func (c *byteLRU) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *byteLRU) pushFront(e *lruEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// doorkeeperBits sizes the admission doorkeeper: 2^12 slots of one
// 64-bit hash each, 32 KiB whatever the traffic.
const doorkeeperBits = 12

// doorkeeper is a cache's admission filter, after TinyLFU's
// doorkeeper: a direct-mapped table holding, per slot, the hash of the
// last key that missed there. A key is admitted when its slot still
// holds its hash — it missed once before and no key since displaced
// it — so an entry asked for once is never cached, however large the
// budget. One atomic swap per decision makes it safe, and lock-free,
// under concurrent queries. The hash is a fixed FNV-1a, so the same
// query stream makes the same decisions in every process.
type doorkeeper struct {
	slots [1 << doorkeeperBits]atomic.Uint64
}

// admit records a miss on key and reports whether key had missed
// recently enough to still own its slot.
func (d *doorkeeper) admit(key string) bool {
	h := doorHash(key)
	return d.slots[h>>(64-doorkeeperBits)].Swap(h) == h
}

// record marks key as seen, so that its next miss is admitted.
func (d *doorkeeper) record(key string) {
	h := doorHash(key)
	d.slots[h>>(64-doorkeeperBits)].Store(h)
}

func doorHash(key string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a 64 offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h | 1 // never 0, the empty slot
}
