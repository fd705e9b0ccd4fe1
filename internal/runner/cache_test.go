package runner

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// boundedRunner returns a Runner of the given width over a fresh cache
// bounded to capacity cells.
func boundedRunner(workers, capacity int) (*Runner, *Cache) {
	c := NewCache()
	c.SetCapacity(capacity)
	return New(workers, WithCache(c)), c
}

func TestCacheCapacityEvictsLRU(t *testing.T) {
	r, c := boundedRunner(1, 2)
	var calls atomic.Int64
	memo := func(i int) {
		t.Helper()
		if _, err := r.Memo(bg, Key{Bench: "lru", Size: i}, func() (CellResult, error) {
			calls.Add(1)
			return CellResult{Value: float64(i)}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	memo(0)
	memo(1)
	memo(0) // touch 0: key 1 becomes the LRU
	memo(2) // evicts 1
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (capacity)", c.Len())
	}
	memo(0) // still cached: no recompute
	if got := calls.Load(); got != 3 {
		t.Fatalf("computed %d cells, want 3 (0, 1, 2)", got)
	}
	memo(1) // evicted: recomputes (and evicts the now-LRU key 2)
	if got := calls.Load(); got != 4 {
		t.Fatalf("computed %d cells after re-requesting evicted key, want 4", got)
	}
}

func TestCacheSetCapacityShrinksImmediately(t *testing.T) {
	c := NewCache()
	r := New(1, WithCache(c))
	for i := 0; i < 8; i++ {
		if _, err := r.Memo(bg, Key{Bench: "shrink", Size: i}, func() (CellResult, error) {
			return CellResult{Value: 1}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.SetCapacity(3)
	if c.Len() != 3 {
		t.Fatalf("Len = %d after SetCapacity(3), want 3", c.Len())
	}
	c.SetCapacity(0) // unbounded again
	for i := 8; i < 20; i++ {
		if _, err := r.Memo(bg, Key{Bench: "shrink", Size: i}, func() (CellResult, error) {
			return CellResult{Value: 1}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 15 {
		t.Fatalf("Len = %d after unbounding, want 15 (3 survivors + 12 new)", c.Len())
	}
}

func TestCacheCapacitySkipsInFlight(t *testing.T) {
	// An in-flight cell must never be evicted (waiters are coalesced
	// onto it), even when insertions push the cache past capacity.
	r, c := boundedRunner(4, 1)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan float64, 1)
	inflight := Key{Bench: "inflight"}
	go func() {
		v, _ := r.Memo(bg, inflight, func() (CellResult, error) {
			close(started)
			<-release
			return CellResult{Value: 9}, nil
		})
		done <- v
	}()
	<-started
	// Two more insertions while the first cell is still computing: each
	// would evict the in-flight entry if eviction did not skip it.
	for i := 0; i < 2; i++ {
		if _, err := r.Memo(bg, Key{Bench: "filler", Size: i}, func() (CellResult, error) {
			return CellResult{Value: 1}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// A coalescing waiter must still find the in-flight entry.
	waiter := make(chan float64, 1)
	go func() {
		v, _ := r.Memo(bg, inflight, func() (CellResult, error) {
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
	// Once completed, the over-capacity cache shrinks on the next insert.
	if _, err := r.Memo(bg, Key{Bench: "post"}, func() (CellResult, error) {
		return CellResult{Value: 2}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d after all cells completed, want capacity 1", got)
	}
}

func TestCacheCapacityConcurrent(t *testing.T) {
	// Hammer a small LRU from many goroutines (run under -race in CI):
	// no deadlock, no lost updates, and the bound holds at quiesce.
	const capacity = 8
	r, c := boundedRunner(4, capacity)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := Key{Bench: "storm", Size: (g*7 + i) % 32}
				v, err := r.Memo(bg, key, func() (CellResult, error) {
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
	wg.Wait()
	if got := c.Len(); got > capacity {
		t.Fatalf("Len = %d at quiesce, want <= %d", got, capacity)
	}
	st := c.Stats()
	if st.Misses < 32 {
		t.Fatalf("misses = %d, want >= 32 (every distinct key computed at least once)", st.Misses)
	}
}

func TestCacheCapacityStatsCountEvictedRecompute(t *testing.T) {
	r, _ := boundedRunner(1, 1)
	for round := 0; round < 2; round++ {
		for i := 0; i < 2; i++ {
			if _, err := r.Memo(bg, Key{Bench: fmt.Sprintf("k%d", i)}, func() (CellResult, error) {
				return CellResult{Value: 1}, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Capacity 1 with two alternating keys: every access evicts the
	// other key, so all four accesses are misses.
	if st := r.Stats(); st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("Stats = %+v, want 4 misses / 0 hits under thrashing", st)
	}
}

// TestCacheConcurrentCapacityResetMemo is the -race soak of the
// cache lock: Memo traffic racing SetCapacity flips, including shrinks
// to one cell that drop nearly everything the cache holds.
// Correctness bar: no deadlock, no lost update (a Memo always returns
// its key's value), and the exact bound respected at quiesce.
func TestCacheConcurrentCapacityResetMemo(t *testing.T) {
	const capacity = 32
	s, c := boundedRunner(8, capacity)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := Key{Bench: "storm", Size: (g*13 + i) % 96}
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
			c.SetCapacity(1)
			_ = c.Len()
		}
	}()
	wg.Wait()
	// Re-establish the bound and fill past it: at quiesce nothing is in
	// flight, so no rounding or in-flight headroom is allowed.
	c.SetCapacity(capacity)
	for i := 0; i < 96; i++ {
		if _, err := s.Memo(bg, Key{Bench: "fill", Size: i}, func() (CellResult, error) {
			return CellResult{Value: 1}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got > capacity {
		t.Fatalf("Len = %d at quiesce, want <= capacity %d", got, capacity)
	}
}

func TestKeyHashStable(t *testing.T) {
	// Routing must be a pure function of the key's content: equal keys
	// hash equal, and distinct fields actually reach the hash.
	a := Key{Platform: "sun-ethernet", Tool: "p4", Bench: "pingpong", Procs: 2, Size: 1024}
	if a.Hash() != a.Hash() {
		t.Fatal("hash is not deterministic")
	}
	distinct := []Key{
		a,
		{Platform: "sun-atm-lan", Tool: "p4", Bench: "pingpong", Procs: 2, Size: 1024},
		{Platform: "sun-ethernet", Tool: "pvm", Bench: "pingpong", Procs: 2, Size: 1024},
		{Platform: "sun-ethernet", Tool: "p4", Bench: "ring", Procs: 2, Size: 1024},
		{Platform: "sun-ethernet", Tool: "p4", Bench: "pingpong", Procs: 4, Size: 1024},
		{Platform: "sun-ethernet", Tool: "p4", Bench: "pingpong", Procs: 2, Size: 2048},
		{Platform: "sun-ethernet", Tool: "p4", Bench: "pingpong", Procs: 2, Size: 1024, Scale: 0.5},
	}
	hashes := map[uint64]Key{}
	for _, k := range distinct {
		if prev, dup := hashes[k.Hash()]; dup {
			t.Fatalf("hash collision between %v and %v", prev, k)
		}
		hashes[k.Hash()] = k
	}
}
