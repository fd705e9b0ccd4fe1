package runner

import (
	"sync"
	"sync/atomic"
	"testing"
)

// keysInBucket returns n distinct keys that all hash-route to bucket
// index want out of buckets — the in-package way to aim load at one
// cache stripe.
func keysInBucket(buckets, want, n int) []Key {
	keys := make([]Key, 0, n)
	for size := 0; len(keys) < n; size++ {
		k := Key{Bench: "pin", Size: size}
		if bucket(k.Hash(), buckets) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestStripedCacheDefaults(t *testing.T) {
	if got := NewCache().Stripes(); got != 1 {
		t.Fatalf("NewCache().Stripes() = %d, want 1 (exact global LRU)", got)
	}
	if got := NewStripedCache(0).Stripes(); got != defaultStripes {
		t.Fatalf("NewStripedCache(0).Stripes() = %d, want the default %d", got, defaultStripes)
	}
	if got := NewStripedCache(7).Stripes(); got != 7 {
		t.Fatalf("NewStripedCache(7).Stripes() = %d, want 7", got)
	}
}

func TestStripedCacheAggregatesLenStatsReset(t *testing.T) {
	c := NewStripedCache(8)
	r := New(4, WithCache(c))
	const cells = 100
	for i := 0; i < cells; i++ {
		key := Key{Bench: "agg-striped", Size: i}
		if _, err := r.Memo(bg, key, func() (CellResult, error) {
			return CellResult{Value: 1}, nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Memo(bg, key, func() (CellResult, error) {
			t.Error("hit recomputed")
			return CellResult{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got != cells {
		t.Fatalf("Len = %d summed over stripes, want %d", got, cells)
	}
	if st := c.Stats(); st.Misses != cells || st.Hits != cells {
		t.Fatalf("Stats = %+v, want %d/%d", st, cells, cells)
	}
	c.Reset()
	if got := c.Len(); got != 0 {
		t.Fatalf("Len = %d after Reset, want 0 (every stripe dropped)", got)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Stats = %+v after Reset, want zeroes", st)
	}
}

func TestStripedCapacityDividedPerStripe(t *testing.T) {
	const stripes = 4
	c := NewStripedCache(stripes)
	c.SetCapacity(8) // 2 per stripe
	if got := c.Capacity(); got != 8 {
		t.Fatalf("Capacity = %d, want the configured total 8", got)
	}
	r := New(1, WithCache(c))
	var calls atomic.Int64
	memo := func(k Key) {
		t.Helper()
		if _, err := r.Memo(bg, k, func() (CellResult, error) {
			calls.Add(1)
			return CellResult{Value: 1}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Four keys aimed at one stripe overflow its share of two even
	// though the cache as a whole is nowhere near its total bound.
	keys := keysInBucket(stripes, 0, 4)
	for _, k := range keys {
		memo(k)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d after overflowing one stripe, want its share 2", got)
	}
	// The survivors are the most recently used pair; the first two were
	// evicted and recompute on request.
	memo(keys[3])
	memo(keys[2])
	if got := calls.Load(); got != 4 {
		t.Fatalf("computed %d cells, want 4 (the per-stripe survivors replay)", got)
	}
	memo(keys[0])
	if got := calls.Load(); got != 5 {
		t.Fatalf("computed %d cells, want 5 (evicted key recomputes)", got)
	}
}

func TestStripedEvictionOrderAtStripeBoundary(t *testing.T) {
	// The LRU order within one stripe must match the single-stripe
	// cache's behavior exactly: touch a key and the other becomes the
	// eviction victim.
	const stripes = 4
	c := NewStripedCache(stripes)
	c.SetCapacity(2 * stripes) // 2 per stripe
	r := New(1, WithCache(c))
	var calls atomic.Int64
	memo := func(k Key) {
		t.Helper()
		if _, err := r.Memo(bg, k, func() (CellResult, error) {
			calls.Add(1)
			return CellResult{Value: float64(k.Size)}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	keys := keysInBucket(stripes, 1, 3)
	memo(keys[0])
	memo(keys[1])
	memo(keys[0]) // touch key 0: key 1 becomes the stripe's LRU
	memo(keys[2]) // evicts key 1
	memo(keys[0]) // still cached
	if got := calls.Load(); got != 3 {
		t.Fatalf("computed %d cells, want 3 (touched key survived)", got)
	}
	memo(keys[1]) // evicted: recomputes
	if got := calls.Load(); got != 4 {
		t.Fatalf("computed %d cells after re-requesting the stripe's LRU victim, want 4", got)
	}
}

func TestStripedInFlightNeverEvicted(t *testing.T) {
	// Filling a stripe past its share while one of its cells is still
	// computing must not evict the in-flight entry: coalesced waiters
	// keep finding it (the per-stripe form of the Cache invariant).
	const stripes = 4
	c := NewStripedCache(stripes)
	c.SetCapacity(stripes) // 1 per stripe
	r := New(4, WithCache(c))
	keys := keysInBucket(stripes, 2, 4)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan float64, 1)
	go func() {
		v, _ := r.Memo(bg, keys[0], func() (CellResult, error) {
			close(started)
			<-release
			return CellResult{Value: 9}, nil
		})
		done <- v
	}()
	<-started
	for _, k := range keys[1:3] {
		if _, err := r.Memo(bg, k, func() (CellResult, error) {
			return CellResult{Value: 1}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	waiter := make(chan float64, 1)
	go func() {
		v, _ := r.Memo(bg, keys[0], func() (CellResult, error) {
			t.Error("coalesced waiter recomputed an in-flight cell")
			return CellResult{}, nil
		})
		waiter <- v
	}()
	close(release)
	if v := <-done; v != 9 {
		t.Fatalf("in-flight Memo = %v, want 9", v)
	}
	if v := <-waiter; v != 9 {
		t.Fatalf("coalesced Memo = %v, want 9", v)
	}
	// Once completed, the next insert in that stripe shrinks it back to
	// its share.
	if _, err := r.Memo(bg, keys[3], func() (CellResult, error) {
		return CellResult{Value: 2}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got > stripes {
		t.Fatalf("Len = %d after all cells completed, want <= %d (every stripe at its share)", got, stripes)
	}
}

// TestStripedCacheConcurrentCapacityResetMemo is the -race soak of the
// striped cache: Memo traffic across every stripe racing SetCapacity
// flips and Resets. Correctness bar: no deadlock, no lost update (a
// Memo always returns its key's value), bound respected at quiesce.
func TestStripedCacheConcurrentCapacityResetMemo(t *testing.T) {
	const stripes, capacity = 8, 32
	c := NewStripedCache(stripes)
	c.SetCapacity(capacity)
	s := New(8, WithCache(c))
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := Key{Bench: "striped-storm", Size: (g*13 + i) % 96}
				v, err := s.Memo(bg, key, func() (CellResult, error) {
					return CellResult{Value: float64(key.Size)}, nil
				})
				if err != nil {
					t.Errorf("Memo: %v", err)
					return
				}
				if v != float64(key.Size) {
					t.Errorf("Memo = %v, want %d (stale or clobbered cell)", v, key.Size)
					return
				}
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			c.SetCapacity(capacity / 2)
			c.SetCapacity(capacity)
			c.SetCapacity(0)
			c.SetCapacity(capacity)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			c.Reset()
			_ = c.Len()
		}
	}()
	wg.Wait()
	// Re-establish the bound and fill: at quiesce the aggregate length
	// must respect capacity plus the rounding headroom (one per stripe).
	c.SetCapacity(capacity)
	for i := 0; i < 96; i++ {
		if _, err := s.Memo(bg, Key{Bench: "striped-fill", Size: i}, func() (CellResult, error) {
			return CellResult{Value: 1}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got > capacity+stripes {
		t.Fatalf("Len = %d at quiesce, want <= capacity %d + per-stripe rounding %d", got, capacity, stripes)
	}
}
