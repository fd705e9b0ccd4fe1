package runner

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestQuotaZeroLimitsIsTransparent(t *testing.T) {
	r := New(2)
	if x := NewQuota(r, Limits{}); x != Executor(r) {
		t.Fatal("zero Limits must return the base executor unwrapped")
	}
}

func TestQuotaMaxCells(t *testing.T) {
	r := New(2)
	x := NewQuota(r, Limits{MaxCells: 2})
	for i := 0; i < 2; i++ {
		if _, err := x.Memo(bg, Key{Bench: "cell", Size: i}, func() (CellResult, error) {
			return CellResult{Value: 1}, nil
		}); err != nil {
			t.Fatalf("cell %d within budget: %v", i, err)
		}
	}
	// Budget spent: the next cell — even one already cached — is refused.
	_, err := x.Memo(bg, Key{Bench: "cell", Size: 0}, func() (CellResult, error) {
		t.Fatal("compute must not run past the budget")
		return CellResult{}, nil
	})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Memo past budget = %v, want ErrQuotaExceeded", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "cells" || qe.Used != 2 || qe.Limit != 2 {
		t.Fatalf("QuotaError = %+v", qe)
	}
	if !strings.Contains(err.Error(), "cells") {
		t.Fatalf("error text %q does not name the resource", err)
	}
	if err := x.Do(bg, func() error { t.Fatal("Do must not run past the budget"); return nil }); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Do past budget = %v, want ErrQuotaExceeded", err)
	}
}

func TestQuotaHitsAreFree(t *testing.T) {
	r := New(2)
	x := NewQuota(r, Limits{MaxCells: 1})
	key := Key{Bench: "free-hit"}
	compute := func() (CellResult, error) { return CellResult{Value: 3}, nil }
	if _, err := x.Memo(bg, key, compute); err != nil {
		t.Fatal(err)
	}
	// Only simulations charge a budget. Demonstrate it before
	// exhaustion (a spent budget refuses even hits): with budget 2, a
	// hit between two misses does not consume a cell.
	y := NewQuota(New(2, WithCache(r.Cache())), Limits{MaxCells: 2})
	if _, err := y.Memo(bg, key, compute); err != nil { // hit: free
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := y.Memo(bg, Key{Bench: "free-hit", Size: i + 1}, compute); err != nil {
			t.Fatalf("miss %d: budget 2 must admit 2 simulations after a free hit: %v", i, err)
		}
	}
}

func TestQuotaMaxVirtualTime(t *testing.T) {
	r := New(1)
	x := NewQuota(r, Limits{MaxVirtualTime: 50 * time.Millisecond})
	// First cell charges 40ms virtual: under budget, admitted.
	if _, err := x.Memo(bg, Key{Bench: "vt", Size: 0}, func() (CellResult, error) {
		return CellResult{Value: 1, Virtual: 40 * time.Millisecond}, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Second charges 40ms more, overshooting to 80ms — in-flight work
	// completes and is charged.
	if _, err := x.Memo(bg, Key{Bench: "vt", Size: 1}, func() (CellResult, error) {
		return CellResult{Value: 1, Virtual: 40 * time.Millisecond}, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Now the budget is exhausted: refused before scheduling.
	_, err := x.Memo(bg, Key{Bench: "vt", Size: 2}, func() (CellResult, error) {
		t.Fatal("compute must not run past the virtual-time budget")
		return CellResult{}, nil
	})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Memo past virtual budget = %v, want ErrQuotaExceeded", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "virtual time" {
		t.Fatalf("QuotaError = %+v, want virtual time resource", qe)
	}
	if !strings.Contains(err.Error(), "50ms") {
		t.Fatalf("error text %q should render the limit as a duration", err)
	}
}

func TestQuotaBreachDoesNotPoisonSharedCache(t *testing.T) {
	cache := NewCache()
	quotad := NewQuota(New(2, WithCache(cache)), Limits{MaxCells: 1})
	compute := func() (CellResult, error) { return CellResult{Value: 7}, nil }
	if _, err := quotad.Memo(bg, Key{Bench: "ok"}, compute); err != nil {
		t.Fatal(err)
	}
	refusedKey := Key{Bench: "refused"}
	if _, err := quotad.Memo(bg, refusedKey, compute); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("expected quota breach, got %v", err)
	}
	// The refusal must not have been memoized: an unquota'd runner
	// sharing the cache computes the cell normally.
	free := New(2, WithCache(cache))
	v, err := free.Memo(bg, refusedKey, compute)
	if err != nil || v != 7 {
		t.Fatalf("shared cache poisoned by quota breach: %v, %v", v, err)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d cells, want 2 (ok + refused-then-computed)", cache.Len())
	}
}

func TestQuotaChargesFailedSimulations(t *testing.T) {
	r := New(1)
	x := NewQuota(r, Limits{MaxCells: 1})
	boom := errors.New("boom")
	if _, err := x.Memo(bg, Key{Bench: "fail"}, func() (CellResult, error) {
		return CellResult{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failing cell error = %v", err)
	}
	if _, err := x.Memo(bg, Key{Bench: "next"}, func() (CellResult, error) {
		return CellResult{Value: 1}, nil
	}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("failed simulation must still charge the budget: %v", err)
	}
}

func TestQuotaChargesPanickingCell(t *testing.T) {
	// A panicking user factory still ran a simulation: the charge must
	// land even though compute never returned, or a crashing tenant
	// simulates for free. (The charge used to sit after compute(), so a
	// panic skipped it.)
	r := New(1)
	x := NewQuota(r, Limits{MaxCells: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic must propagate to the computing caller")
			}
		}()
		_, _ = x.Memo(bg, Key{Bench: "kaboom-quota"}, func() (CellResult, error) { panic("boom") })
	}()
	_, err := x.Memo(bg, Key{Bench: "after-kaboom"}, func() (CellResult, error) {
		t.Fatal("compute must not run: the panicked cell spent the budget")
		return CellResult{}, nil
	})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Memo after a panicked cell = %v, want ErrQuotaExceeded", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "cells" || qe.Used != 1 {
		t.Fatalf("QuotaError = %+v, want 1 charged cell", qe)
	}
}

func TestQuotaPanickingCellChargesNoVirtualTime(t *testing.T) {
	// The panic path never produced a CellResult, so only the cell
	// budget is charged: a virtual-time budget must survive the crash
	// and still admit the next cell.
	x := NewQuota(New(1), Limits{MaxVirtualTime: 50 * time.Millisecond})
	func() {
		defer func() { _ = recover() }()
		_, _ = x.Memo(bg, Key{Bench: "kaboom-vt"}, func() (CellResult, error) { panic("boom") })
	}()
	if _, err := x.Memo(bg, Key{Bench: "after-kaboom-vt"}, func() (CellResult, error) {
		return CellResult{Value: 1, Virtual: 10 * time.Millisecond}, nil
	}); err != nil {
		t.Fatalf("virtual-time budget must survive a panicked cell: %v", err)
	}
}

func TestQuotaChargesDo(t *testing.T) {
	// Direct (non-memoized) runs are simulations too: a Do-only
	// workload must deplete its cell budget.
	x := NewQuota(New(1), Limits{MaxCells: 2})
	for i := 0; i < 2; i++ {
		if err := x.Do(bg, func() error { return nil }); err != nil {
			t.Fatalf("Do %d within budget: %v", i, err)
		}
	}
	if err := x.Do(bg, func() error { t.Fatal("must not run"); return nil }); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Do past a Do-spent budget = %v, want ErrQuotaExceeded", err)
	}
	if _, err := x.Memo(bg, Key{Bench: "after-do"}, func() (CellResult, error) {
		return CellResult{Value: 1}, nil
	}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("Memo past a Do-spent budget = %v, want ErrQuotaExceeded", err)
	}
}

func TestQuotaBoundsConcurrentFanOutOvershoot(t *testing.T) {
	// The admission gate must keep a wide fan-out from slipping past
	// the budget wholesale: with slow cells and a concurrent Map, the
	// number of simulations may overshoot MaxCells by at most the
	// parallelism bound.
	const workers, budget, fanout = 2, 3, 40
	r := New(workers)
	x := NewQuota(r, Limits{MaxCells: budget})
	var simulated atomic.Int64
	err := x.Map(bg, fanout, func(i int) error {
		_, err := x.Memo(bg, Key{Bench: "wide", Size: i}, func() (CellResult, error) {
			simulated.Add(1)
			time.Sleep(2 * time.Millisecond) // realistic cell duration
			return CellResult{Value: 1}, nil
		})
		return err
	})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("wide fan-out past budget = %v, want ErrQuotaExceeded", err)
	}
	if got := simulated.Load(); got > budget+workers {
		t.Fatalf("fan-out simulated %d cells, want <= budget %d + parallelism %d", got, budget, workers)
	}
}
