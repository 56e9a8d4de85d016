package par

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheSingleflightRace(t *testing.T) {
	// Concurrent misses for the same key must compute exactly once.
	const keys = 8
	const workers = 16
	const iters = 200
	vals := make([]*int, keys)
	for i := range vals {
		vals[i] = new(int)
	}
	c := NewCache[*int](256, nil)
	var computes [keys]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := i % keys
				v, err := c.Get(uint64(k), func() (*int, error) {
					computes[k].Add(1)
					return vals[k], nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v != vals[k] {
					t.Errorf("key %d returned wrong value", k)
					return
				}
			}
		}()
	}
	wg.Wait()
	for k := range computes {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want exactly 1", k, n)
		}
	}
	st := c.Stats()
	if st.Misses != keys {
		t.Errorf("misses = %d, want %d", st.Misses, keys)
	}
	if got, want := st.Hits+st.InflightMerges, int64(workers*iters-keys); got != want {
		t.Errorf("hits+merges = %d, want %d", got, want)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache[int](256, func(int) { t.Error("failed computation released") })
	boom := errors.New("compute exploded")
	if _, err := c.Get(42, func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if c.Len() != 0 {
		t.Fatal("failed computation was cached")
	}
	got, err := c.Get(42, func() (int, error) { return 7, nil })
	if err != nil || got != 7 {
		t.Fatalf("retry after failure: got %v, %v", got, err)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (failure not cached)", st.Misses)
	}
}

func TestCacheClockEviction(t *testing.T) {
	// Overfill a single shard: the CLOCK hand must evict to stay within
	// bound, and every evicted value must be released.
	const perShard = 16
	released := 0
	c := NewCache(perShard*cacheShardCount, func(int) { released++ })
	total := perShard + 4
	for i := 0; i < total; i++ {
		key := uint64(i)<<4 | 3 // all keys land in shard 3
		if _, err := c.Get(key, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n != perShard {
		t.Fatalf("cache retains %d entries, want %d", n, perShard)
	}
	if st := c.Stats(); st.Evictions != int64(total-perShard) {
		t.Fatalf("evictions = %d, want %d", st.Evictions, total-perShard)
	}
	if released != total-perShard {
		t.Fatalf("released %d values, want %d", released, total-perShard)
	}
}

// TestCacheReleasesDroppedValuesOnceInKeyOrder drops values by each of
// the three routes — CLOCK eviction, Replace, InvalidateMatching — and
// checks every dropped value is released exactly once, a batch in
// ascending key order regardless of which shard holds each key.
func TestCacheReleasesDroppedValuesOnceInKeyOrder(t *testing.T) {
	var released []string
	c := NewCache(cacheShardCount, func(v string) { released = append(released, v) }) // one entry per shard
	put := func(key uint64, v string) {
		t.Helper()
		if _, err := c.Get(key, func() (string, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put(0x03, "a")
	put(0x13, "b") // same shard as 0x03: evicts "a"
	c.Replace(0x13, "b2")
	// Shard order 0, 1, 2, 4 differs from key order.
	put(0x30, "s0")
	put(0x21, "s1")
	put(0x12, "s2")
	put(0x04, "s4")
	if n := c.InvalidateMatching(func(string) bool { return true }); n != 5 {
		t.Fatalf("InvalidateMatching dropped %d, want 5", n)
	}
	want := []string{"a", "b", "s4", "s2", "b2", "s1", "s0"}
	if !slices.Equal(released, want) {
		t.Fatalf("released %v, want %v", released, want)
	}
	if c.Len() != 0 {
		t.Fatalf("cache retains %d entries after invalidating all", c.Len())
	}
}

// TestCacheInvalidateDropsInflight checks that an in-flight entry is
// dropped even by a predicate that rejects every value: its computation
// still delivers to the caller and merged waiters, but is not re-cached.
func TestCacheInvalidateDropsInflight(t *testing.T) {
	c := NewCache[int](256, func(int) { t.Error("in-flight value released") })
	started, gate := make(chan struct{}), make(chan struct{})
	results := make(chan int, 2)
	get := func() {
		v, err := c.Get(7, func() (int, error) {
			close(started)
			<-gate
			return 42, nil
		})
		if err != nil {
			t.Error(err)
		}
		results <- v
	}
	go get()
	<-started
	go get()
	for c.Stats().InflightMerges == 0 {
		runtime.Gosched()
	}
	if n := c.InvalidateMatching(func(int) bool { return false }); n != 1 {
		t.Fatalf("InvalidateMatching dropped %d, want the 1 in-flight entry", n)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if v := <-results; v != 42 {
			t.Fatalf("caller %d got %d, want 42", i, v)
		}
	}
	if c.Len() != 0 {
		t.Fatal("invalidated in-flight computation was re-cached")
	}
	recomputed := false
	if _, err := c.Get(7, func() (int, error) { recomputed = true; return 43, nil }); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("lookup after invalidation hit a stale entry")
	}
}

// TestCacheInvalidateKeepsRejected checks that computed entries the
// predicate rejects survive, stay hits, and keep their place in the CLOCK
// ring.
func TestCacheInvalidateKeepsRejected(t *testing.T) {
	c := NewCache[int](256, nil)
	for k := 0; k < 8; k++ {
		if _, err := c.Get(uint64(k), func() (int, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.InvalidateMatching(func(v int) bool { return v%2 == 0 }); n != 4 {
		t.Fatalf("InvalidateMatching dropped %d, want 4", n)
	}
	if c.Len() != 4 {
		t.Fatalf("cache retains %d entries, want 4", c.Len())
	}
	c.ResetStats()
	for k := 1; k < 8; k += 2 {
		v, err := c.Get(uint64(k), func() (int, error) {
			t.Errorf("surviving key %d recomputed", k)
			return k, nil
		})
		if err != nil || v != k {
			t.Fatalf("key %d: got %d, %v", k, v, err)
		}
	}
	if st := c.Stats(); st.Hits != 4 || st.Misses != 0 {
		t.Fatalf("stats after invalidation = %+v, want 4 hits", st)
	}
}

// TestCacheConcurrentStress hammers one cache from many goroutines with
// lookups over more keys than it holds, structural replaces, and
// predicate invalidations, then checks the accounting identity and that
// no value is released twice. Run under -race this is the cache's
// thread-safety gate.
func TestCacheConcurrentStress(t *testing.T) {
	const (
		G    = 8
		ops  = 2000
		keys = 96
	)
	var mu sync.Mutex
	releases := make(map[*int]int)
	c := NewCache(32, func(v *int) {
		mu.Lock()
		releases[v]++
		mu.Unlock()
	})
	var gets atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for op := 0; op < ops; op++ {
				key := uint64((g*31 + op*7) % keys)
				switch {
				case op%97 == 0:
					c.InvalidateMatching(func(v *int) bool { return *v%3 == 0 })
				case op%13 == 0:
					v := int(key)
					c.Replace(key, &v)
				default:
					gets.Add(1)
					v, err := c.Get(key, func() (*int, error) {
						v := int(key)
						return &v, nil
					})
					if err != nil || *v != int(key) {
						t.Errorf("key %d: got %v, %v", key, v, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	c.InvalidateMatching(func(*int) bool { return true })

	st := c.Stats()
	if total := st.Hits + st.Misses + st.InflightMerges; total != gets.Load() {
		t.Fatalf("hits+misses+merges = %d, want %d (stats lost updates)", total, gets.Load())
	}
	if st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("degenerate stress mix: %+v", st)
	}
	if c.Len() != 0 {
		t.Fatalf("cache retains %d entries after invalidating all", c.Len())
	}
	for v, n := range releases {
		if n != 1 {
			t.Fatalf("value for key %d released %d times", *v, n)
		}
	}
}
