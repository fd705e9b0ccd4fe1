package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeTier is an in-memory second-tier store recording traffic.
type fakeTier struct {
	mu    sync.Mutex
	m     map[Key]CellResult
	fills int
}

func newFakeTier() *fakeTier { return &fakeTier{m: make(map[Key]CellResult)} }

func (f *fakeTier) Lookup(key Key) (CellResult, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	res, ok := f.m[key]
	return res, ok
}

func (f *fakeTier) Fill(key Key, res CellResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fills++
	f.m[key] = res
}

func (f *fakeTier) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}

func TestTierHitSkipsComputeAndCountsAsHit(t *testing.T) {
	tier := newFakeTier()
	key := Key{Bench: "stored"}
	tier.m[key] = CellResult{Value: 12.5, Virtual: time.Second}

	c := NewCache()
	c.SetTier(tier)
	r := New(2, WithCache(c))
	var observed []bool
	r.Observe(func(_ context.Context, _ Key, cached bool, err error) {
		observed = append(observed, cached)
		if err != nil {
			t.Errorf("observer error = %v", err)
		}
	})
	v, err := r.Memo(bg, key, func() (CellResult, error) {
		t.Fatal("compute must not run for a cell the tier holds")
		return CellResult{}, nil
	})
	if err != nil || v != 12.5 {
		t.Fatalf("Memo = %v, %v, want 12.5 from the tier", v, err)
	}
	if st := r.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("Stats = %+v; a tier-served cell must count as a hit", st)
	}
	if len(observed) != 1 || !observed[0] {
		t.Fatalf("observer saw %v, want one cached=true callback", observed)
	}
	// The replayed cell is now in the memory tier: a second Memo stays a
	// plain hit even if the tier disappears.
	c.SetTier(nil)
	if v, err := r.Memo(bg, key, func() (CellResult, error) {
		t.Fatal("compute must not run for a memory-cached cell")
		return CellResult{}, nil
	}); err != nil || v != 12.5 {
		t.Fatalf("second Memo = %v, %v", v, err)
	}
}

func TestTierFilledOnMissAndSharedAcrossCaches(t *testing.T) {
	tier := newFakeTier()
	key := Key{Bench: "fresh"}

	c1 := NewCache()
	c1.SetTier(tier)
	r1 := New(2, WithCache(c1))
	if v, err := r1.Memo(bg, key, func() (CellResult, error) {
		return CellResult{Value: 3, Virtual: time.Millisecond}, nil
	}); err != nil || v != 3 {
		t.Fatalf("Memo = %v, %v", v, err)
	}
	if res, ok := tier.Lookup(key); !ok || res.Value != 3 || res.Virtual != time.Millisecond {
		t.Fatalf("tier holds %+v, %v; want the computed cell written through", res, ok)
	}

	// A fresh cache over the same tier replays the cell without compute:
	// this is the process-restart path.
	c2 := NewCache()
	c2.SetTier(tier)
	r2 := New(2, WithCache(c2))
	if v, err := r2.Memo(bg, key, func() (CellResult, error) {
		t.Fatal("restarted runner must replay from the tier, not recompute")
		return CellResult{}, nil
	}); err != nil || v != 3 {
		t.Fatalf("replayed Memo = %v, %v", v, err)
	}
}

func TestTierNeverFilledWithErrors(t *testing.T) {
	tier := newFakeTier()
	c := NewCache()
	c.SetTier(tier)
	r := New(2, WithCache(c))
	sentinel := errors.New("deterministic failure")
	key := Key{Bench: "bad"}
	var calls int
	for i := 0; i < 3; i++ {
		if _, err := r.Memo(bg, key, func() (CellResult, error) {
			calls++
			return CellResult{}, sentinel
		}); !errors.Is(err, sentinel) {
			t.Fatalf("Memo error = %v, want %v", err, sentinel)
		}
	}
	if calls != 1 {
		t.Fatalf("failing compute ran %d times, want 1 (memoized in memory)", calls)
	}
	if tier.Len() != 0 || tier.fills != 0 {
		t.Fatalf("error cell reached the durable tier (%d cells, %d fills)", tier.Len(), tier.fills)
	}
}

func TestContextErrorsNeverPoisonCacheOrTier(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"canceled", context.Canceled},
		{"deadline", context.DeadlineExceeded},
		{"wrapped-canceled", fmt.Errorf("factory: %w", context.Canceled)},
		{"wrapped-deadline", fmt.Errorf("factory: %w", context.DeadlineExceeded)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Two sessions (runners) over one shared cache and one durable
			// tier: the first tenant's cancellation mid-compute must not be
			// served to the second as a cached result.
			tier := newFakeTier()
			cache := NewCache()
			cache.SetTier(tier)
			r1 := New(2, WithCache(cache))
			r2 := New(2, WithCache(cache))
			key := Key{Bench: "shared-" + tc.name}

			if _, err := r1.Memo(bg, key, func() (CellResult, error) {
				return CellResult{}, tc.err
			}); !errors.Is(err, tc.err) {
				t.Fatalf("first Memo error = %v, want %v", err, tc.err)
			}
			if n := cache.Len(); n != 0 {
				t.Fatalf("cache holds %d entries after a context error, want 0", n)
			}
			if tier.Len() != 0 {
				t.Fatal("context error written to the durable tier")
			}

			v, err := r2.Memo(bg, key, func() (CellResult, error) {
				return CellResult{Value: 42}, nil
			})
			if err != nil || v != 42 {
				t.Fatalf("second tenant got %v, %v; want a fresh 42 — cache was poisoned", v, err)
			}
			if res, ok := tier.Lookup(key); !ok || res.Value != 42 {
				t.Fatalf("tier holds %+v, %v after the successful recompute", res, ok)
			}
		})
	}
}

func TestContextErrorWakesCoalescedWaitersThenRecomputes(t *testing.T) {
	r := New(4)
	key := Key{Bench: "retracted"}
	started := make(chan struct{})
	release := make(chan struct{})
	waited := make(chan error, 1)
	go func() {
		_, err := r.Memo(bg, key, func() (CellResult, error) {
			close(started)
			<-release
			return CellResult{}, context.Canceled
		})
		waited <- err
	}()
	<-started
	coalesced := make(chan error, 1)
	val := make(chan float64, 1)
	go func() {
		v, err := r.Memo(bg, key, func() (CellResult, error) {
			// Only runs if this goroutine raced past the retraction and
			// became the new owner; either way the cache must be clean.
			return CellResult{Value: 5}, nil
		})
		val <- v
		coalesced <- err
	}()
	// Give the waiter a moment to attach to the in-flight entry, then let
	// the owner fail with the context error.
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	close(release)
	if err := <-waited; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner error = %v, want context.Canceled", err)
	}
	// A coalesced waiter is woken with the owner's error (never left
	// hanging); one that arrived after the retraction recomputes.
	if err := <-coalesced; err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("coalesced waiter error = %v, want context.Canceled", err)
		}
	} else if v := <-val; v != 5 {
		t.Fatalf("late waiter recomputed %v, want 5", v)
	}
	// The retraction must leave the key computable: no stale error entry.
	v, err := r.Memo(bg, key, func() (CellResult, error) {
		return CellResult{Value: 5}, nil
	})
	if err != nil || v != 5 {
		t.Fatalf("recompute after retraction = %v, %v; the context error was cached", v, err)
	}
}

func TestSetTierTwicePanics(t *testing.T) {
	c := NewCache()
	c.SetTier(newFakeTier())
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("attaching a second tier must panic")
		}
		if msg, ok := p.(string); !ok || !strings.Contains(msg, "already has a second-tier result store") {
			t.Fatalf("panic = %v, want the double-attach message", p)
		}
	}()
	c.SetTier(newFakeTier())
}

func TestSetTierDetachReattach(t *testing.T) {
	c := NewCache()
	first := newFakeTier()
	c.SetTier(first)
	if c.Tier() != Tier(first) {
		t.Fatal("Tier() must return the attached tier")
	}
	c.SetTier(nil)
	if c.Tier() != nil {
		t.Fatal("Tier() must be nil after detach")
	}
	second := newFakeTier()
	c.SetTier(second) // detach makes the slot free again
	if c.Tier() != Tier(second) {
		t.Fatal("reattach after detach must succeed")
	}
}

func TestCacheResetAndSetCapacityConcurrentWithTierFills(t *testing.T) {
	// Exercised under -race in CI: Reset and SetCapacity must be safe
	// while Memos are being served from and written through to a tier.
	tier := newFakeTier()
	cache := NewCache()
	cache.SetTier(tier)
	r := New(8, WithCache(cache))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := Key{Bench: "cell", Procs: (g*64 + i) % 96}
				v, err := r.Memo(bg, key, func() (CellResult, error) {
					return CellResult{Value: float64(key.Procs)}, nil
				})
				if err != nil {
					t.Errorf("Memo: %v", err)
					return
				}
				if v != float64(key.Procs) {
					t.Errorf("Memo = %v, want %d", v, key.Procs)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			cache.Reset()
			cache.SetCapacity(16 + i%32)
			runtime.Gosched()
		}
		close(stop)
	}()
	wg.Wait()
	// Every key ever computed must have landed in the tier with its own
	// value, regardless of how often the memory tier was wiped.
	tier.mu.Lock()
	defer tier.mu.Unlock()
	for key, res := range tier.m {
		if res.Value != float64(key.Procs) {
			t.Fatalf("tier cell %v = %v, want %d", key, res.Value, key.Procs)
		}
	}
}

func TestMapBoundsGoroutineFanout(t *testing.T) {
	// A generated 100k-cell sweep must not spawn 100k goroutines just to
	// funnel them through a 4-token semaphore: Map launches at most
	// workers goroutines and feeds them from a shared counter.
	const workers = 4
	const n = 100_000
	r := New(workers)
	base := runtime.NumGoroutine()
	var entered atomic.Int64
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- r.Map(bg, n, func(i int) error {
			if entered.Add(1) <= workers {
				<-release // park the first wave so we can count goroutines
			}
			return nil
		})
	}()
	for entered.Load() < workers {
		runtime.Gosched()
	}
	if g := runtime.NumGoroutine(); g > base+workers+8 {
		t.Fatalf("Map over %d indices is running %d goroutines (baseline %d, workers %d): fan-out is unbounded", n, g, base, workers)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := entered.Load(); got != n {
		t.Fatalf("fn ran %d times, want %d", got, n)
	}
}

func TestMapParallelReturnsLowestIndexError(t *testing.T) {
	// With the bounded dispatcher, indices are handed out in ascending
	// order and the lowest recorded error wins — even when a higher
	// index fails first in wall-clock time.
	r := New(4)
	errLow := errors.New("low")
	errHigh := errors.New("high")
	highFailed := make(chan struct{})
	err := r.Map(bg, 100, func(i int) error {
		switch i {
		case 3:
			<-highFailed // fail only after index 7 already has
			return errLow
		case 7:
			close(highFailed)
			return errHigh
		}
		return nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("Map error = %v, want the lowest-index error %v", err, errLow)
	}
}
