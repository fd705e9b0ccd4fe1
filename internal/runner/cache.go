package runner

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"
)

// entry is one memoized cell. done is closed once val/err are final, so
// latecomers for an in-flight cell block instead of re-simulating. el
// is the entry's node in the cache's recency list — always non-nil,
// maintained even while the cache is unbounded so that SetCapacity can
// start evicting in true LRU order at any point in the cache's life.
// A hit reads only val and err; a cell's virtual cost is charged where
// it is computed, so the entry does not keep it.
type entry struct {
	done chan struct{}
	val  float64
	err  error
	el   *list.Element
}

// Cache is the memoization store for experiment cells: one mutex, one
// map and one exact LRU list. It is safe for concurrent use and may be
// shared between executors (sessions that want to pool their
// simulation results while keeping independent parallelism bounds).
// A sweep over remote workers memoizes here too, on the coordinator:
// a worker computes the cells it is sent and keeps none of them.
// The zero value is not usable; call NewCache.
//
// By default a Cache grows without bound — the paper's evaluation
// matrix is finite, so for one sweep that is the right policy. Long-
// lived shared caches (a multi-tenant server memoizing across sessions)
// can bound it with SetCapacity: inserting beyond the capacity evicts
// the least-recently-used completed cell. Evicted cells are recomputed
// on next request — correct, since cells are deterministic. A lock
// hold is a map operation and a list splice, well under a microsecond
// against the milliseconds a cell simulates, so one lock serves even a
// cache many sessions share.
type Cache struct {
	mu       sync.Mutex
	m        map[Key]*entry
	order    *list.List // of Key; front = most recently used
	capacity int        // 0 = unbounded

	// tier is the optional durable second tier (see SetTier): consulted
	// on misses, written through on completed cells. Boxed behind an
	// atomic pointer so the Memo hot path loads it without a lock.
	tier atomic.Pointer[tierBox]

	hits   atomic.Int64
	misses atomic.Int64
}

// tierBox wraps the Tier interface value so it can sit behind an
// atomic.Pointer.
type tierBox struct{ t Tier }

// NewCache returns an empty, unbounded cell cache.
func NewCache() *Cache {
	return &Cache{m: make(map[Key]*entry), order: list.New()}
}

// fnv-1a over the canonical key fields. The same hash routes keys to
// remote workers and fingerprints them in the durable store, so both
// are pure functions of a key's content.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	// Field separator, so ("ab","c") and ("a","bc") cannot alias.
	h ^= 0xff
	h *= fnvPrime64
	return h
}

// fnvUint64 folds a whole word in with one xor/multiply round — the
// numeric key fields are small and the multiply mixes them plenty for
// routing, at an eighth of the byte-at-a-time cost.
func fnvUint64(h, v uint64) uint64 {
	h ^= v
	h *= fnvPrime64
	return h
}

// Hash is FNV-1a over the canonical key fields. One hash is the
// content address everywhere: internal/remote rendezvous-routes keys
// to workers by it, and the durable store records it per cell as the
// key's fingerprint.
func (k Key) Hash() uint64 {
	h := uint64(fnvOffset64)
	h = fnvString(h, k.Platform)
	h = fnvString(h, k.Tool)
	h = fnvString(h, k.Bench)
	h = fnvUint64(h, uint64(k.Procs))
	h = fnvUint64(h, uint64(k.Size))
	h = fnvUint64(h, math.Float64bits(k.Scale))
	return h
}

// SetCapacity bounds the cache to at most n cells, evicting the
// least-recently-used completed cells immediately if it already holds
// more. n <= 0 removes the bound. Cells whose computation is still in
// flight are never evicted — single-flight coalescing stays intact — so
// the cache may transiently exceed n by its in-flight cells.
func (c *Cache) SetCapacity(n int) {
	c.mu.Lock()
	c.capacity = max(n, 0)
	c.evictLocked()
	c.mu.Unlock()
}

// evictLocked drops least-recently-used completed cells until the
// cache fits its capacity. Dropping a completed entry is safe
// concurrently with readers that already hold it: they block on its
// done channel (or have read val/err), never on map membership.
// In-flight entries are skipped so coalesced waiters keep finding them.
func (c *Cache) evictLocked() {
	if c.capacity <= 0 {
		return
	}
	for el := c.order.Back(); el != nil && len(c.m) > c.capacity; {
		prev := el.Prev()
		key := el.Value.(Key)
		e := c.m[key]
		select {
		case <-e.done: // completed: evictable
			delete(c.m, key)
			c.order.Remove(el)
		default: // in flight: keep
		}
		el = prev
	}
}

// lookupLocked finds key and marks it most recently used.
func (c *Cache) lookupLocked(key Key) (*entry, bool) {
	e, ok := c.m[key]
	if ok {
		c.order.MoveToFront(e.el)
	}
	return e, ok
}

// insertLocked publishes a fresh in-flight entry for key and evicts if
// the insertion crossed the capacity.
func (c *Cache) insertLocked(key Key) *entry {
	e := &entry{done: make(chan struct{})}
	e.el = c.order.PushFront(key)
	c.m[key] = e
	c.evictLocked()
	return e
}

// remove un-publishes e from the cache — the memoization path calls it
// to retract an entry whose compute resolved to a context error, which
// the Memo contract forbids caching. In-flight entries are never
// evicted, so e is still published; the entry-identity check keeps the
// retraction from ever dropping another entry for the key.
func (c *Cache) remove(key Key, e *entry) {
	c.mu.Lock()
	if cur, ok := c.m[key]; ok && cur == e {
		delete(c.m, key)
		c.order.Remove(e.el)
	}
	c.mu.Unlock()
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// Len reports how many cells are memoized or in flight.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
