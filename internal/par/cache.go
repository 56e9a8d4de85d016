package par

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// Cache is a bounded, concurrency-safe memo keyed by a precomputed uint64
// hash. It is the one implementation behind the planner's configuration
// cache (Algorithm 1 lines 4-6) and the transport's compiled-graph cache,
// which are keyed identically.
//
// The cache is sharded by key: each shard is an RWMutex-guarded map with a
// CLOCK ring bounding the number of retained values, so a hit is one read
// lock, one map probe and one reference-bit store, with no allocation.
// Concurrent misses for the same key are merged (singleflight): the first
// caller computes, later callers block on the entry's done channel and
// share the result. Failed computations are delivered to their waiters but
// not cached.
//
// Values leave the cache by CLOCK eviction, InvalidateMatching or Replace.
// Each dropped value is handed to the release function given to NewCache
// (if any), outside the shard lock.
type Cache[V any] struct {
	shards  [cacheShardCount]cacheShard[V]
	release func(V)

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	merges    atomic.Int64
}

// cacheShardCount spreads lock contention; must be a power of two.
const cacheShardCount = 16

// CacheStats counts a Cache's lookups and drops since creation or the
// last ResetStats.
type CacheStats struct {
	// Hits are lookups served from a completed cached value.
	Hits int64
	// Misses are lookups that ran the computation.
	Misses int64
	// Evictions counts values dropped by the CLOCK bound.
	Evictions int64
	// InflightMerges counts lookups that joined an in-flight computation
	// of the same key instead of recomputing it.
	InflightMerges int64
}

// cacheEntry is one cached value. Before the computation finishes, waiters
// block on done; after close(done) val/err are immutable.
type cacheEntry[V any] struct {
	key      uint64
	val      V
	err      error
	done     chan struct{}
	computed bool        // guarded by the shard lock
	ref      atomic.Bool // CLOCK reference bit; set on hit under RLock
}

// cacheShard is one lock domain of the cache.
type cacheShard[V any] struct {
	mu      sync.RWMutex
	entries map[uint64]*cacheEntry[V]
	// ring holds completed entries only (in-flight entries join it when
	// their computation publishes), so CLOCK never has to skip an entry
	// that cannot be evicted.
	ring []*cacheEntry[V]
	hand int
	cap  int
}

// NewCache returns a cache retaining at most about capacity values (the
// bound is split evenly across shards, rounded up, at least one per
// shard). release, when non-nil, is called once for every value the cache
// drops; pass nil when dropped values need no cleanup.
func NewCache[V any](capacity int, release func(V)) *Cache[V] {
	perShard := max((capacity+cacheShardCount-1)/cacheShardCount, 1)
	c := &Cache[V]{release: release}
	for i := range c.shards {
		c.shards[i].entries = make(map[uint64]*cacheEntry[V])
		c.shards[i].cap = perShard
	}
	return c
}

// Get returns the value cached under key, computing it with compute on a
// miss. Concurrent misses for the same key run compute once.
func (c *Cache[V]) Get(key uint64, compute func() (V, error)) (V, error) {
	s := &c.shards[key&(cacheShardCount-1)]

	s.mu.RLock()
	if e, ok := s.entries[key]; ok {
		if e.computed {
			v, err := e.val, e.err
			e.ref.Store(true)
			s.mu.RUnlock()
			c.hits.Add(1)
			return v, err
		}
		s.mu.RUnlock()
		c.merges.Add(1)
		<-e.done // close happens-after e.val/e.err are published
		return e.val, e.err
	}
	s.mu.RUnlock()

	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		// Lost the upgrade race: someone else inserted between our RUnlock
		// and Lock.
		if e.computed {
			v, err := e.val, e.err
			e.ref.Store(true)
			s.mu.Unlock()
			c.hits.Add(1)
			return v, err
		}
		s.mu.Unlock()
		c.merges.Add(1)
		<-e.done
		return e.val, e.err
	}
	e := &cacheEntry[V]{key: key, done: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()
	c.misses.Add(1)

	v, err := compute()

	var victim *cacheEntry[V]
	s.mu.Lock()
	e.val, e.err = v, err
	e.computed = true
	// The map slot may have been dropped by InvalidateMatching while we
	// were computing; only publish into the ring if we still own it.
	if s.entries[key] == e {
		if err != nil {
			delete(s.entries, key)
		} else {
			victim = s.installLocked(e)
		}
	}
	s.mu.Unlock()
	close(e.done)
	c.evicted(victim)
	return v, err
}

// installLocked adds a completed entry to the CLOCK ring, evicting and
// returning a victim when the shard is at capacity. Called with the shard
// write lock held.
func (s *cacheShard[V]) installLocked(e *cacheEntry[V]) *cacheEntry[V] {
	if len(s.ring) < s.cap {
		s.ring = append(s.ring, e)
		return nil
	}
	// CLOCK sweep: terminate within two passes — the first pass clears
	// every reference bit, the second finds an unreferenced victim.
	for {
		v := s.ring[s.hand]
		if v.ref.Swap(false) {
			s.hand = (s.hand + 1) % len(s.ring)
			continue
		}
		delete(s.entries, v.key)
		s.ring[s.hand] = e
		s.hand = (s.hand + 1) % len(s.ring)
		return v
	}
}

// evicted counts and releases a CLOCK victim (nil for none). Called
// without the shard lock.
func (c *Cache[V]) evicted(victim *cacheEntry[V]) {
	if victim == nil {
		return
	}
	c.evictions.Add(1)
	if c.release != nil {
		c.release(victim.val)
	}
}

// Replace stores v under key in place of a completed value, which is
// released; if key is absent, v is inserted as a completed value (which
// may evict another). A key whose computation is still in flight is left
// alone, and v is not retained.
func (c *Cache[V]) Replace(key uint64, v V) {
	s := &c.shards[key&(cacheShardCount-1)]
	ne := &cacheEntry[V]{key: key, val: v, computed: true}
	var old, victim *cacheEntry[V]
	s.mu.Lock()
	if e, ok := s.entries[key]; ok && e.computed {
		// A fresh entry in the old one's ring slot keeps published entries
		// immutable for merged waiters still reading them.
		ne.ref.Store(e.ref.Load())
		s.ring[slices.Index(s.ring, e)] = ne
		s.entries[key] = ne
		old = e
	} else if !ok {
		s.entries[key] = ne
		victim = s.installLocked(ne)
	}
	s.mu.Unlock()
	if old != nil && c.release != nil {
		c.release(old.val)
	}
	c.evicted(victim)
}

// InvalidateMatching drops every completed value for which pred returns
// true, and every in-flight entry (its value cannot be inspected yet):
// the computation finishes and delivers to its waiters but is not
// re-cached, so values computed before the invalidation never reappear
// after it. It returns the number of entries dropped. Dropped values are
// released in ascending key order after every shard lock is released.
// pred runs under a shard lock and must not call back into the cache.
func (c *Cache[V]) InvalidateMatching(pred func(V) bool) int {
	n := 0
	var dropped []*cacheEntry[V]
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, e := range s.entries {
			if !e.computed || pred(e.val) {
				delete(s.entries, key)
				n++
			}
		}
		// Rebuild the CLOCK ring keeping only survivors; the rest are the
		// completed entries just dropped.
		keep := s.ring[:0]
		for _, e := range s.ring {
			if s.entries[e.key] == e {
				keep = append(keep, e)
			} else if c.release != nil {
				dropped = append(dropped, e)
			}
		}
		clear(s.ring[len(keep):])
		s.ring = keep
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		s.mu.Unlock()
	}
	slices.SortFunc(dropped, func(a, b *cacheEntry[V]) int { return cmp.Compare(a.key, b.key) })
	for _, e := range dropped {
		c.release(e.val)
	}
	return n
}

// Len counts retained (completed or in-flight) entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.entries)
		s.mu.RUnlock()
	}
	return n
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() CacheStats {
	return CacheStats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Evictions:      c.evictions.Load(),
		InflightMerges: c.merges.Load(),
	}
}

// ResetStats zeroes the counters and returns the counts up to that point
// (each counter is swapped atomically).
func (c *Cache[V]) ResetStats() CacheStats {
	return CacheStats{
		Hits:           c.hits.Swap(0),
		Misses:         c.misses.Swap(0),
		Evictions:      c.evictions.Swap(0),
		InflightMerges: c.merges.Swap(0),
	}
}
