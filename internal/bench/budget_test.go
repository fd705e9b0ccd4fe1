package bench

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tooleval/internal/mpt"
	"tooleval/internal/runner"
)

// countingCompute returns a compute step that counts its calls and
// answers every key with res.
func countingCompute(calls *atomic.Int64, res runner.CellResult) func(context.Context, runner.Key) (runner.CellResult, error) {
	return func(context.Context, runner.Key) (runner.CellResult, error) {
		calls.Add(1)
		return res, nil
	}
}

// directRun is the harness's direct run of body on a one-rank p4
// program.
func directRun(h *Harness, body mpt.Body) error {
	_, err := h.Run(bgCtx, "sun-ethernet", "p4", mpt.RunConfig{Procs: 1}, body)
	return err
}

func noop(*mpt.Ctx) (any, error) { return nil, nil }

func TestQuotaZeroLimitsIsTransparent(t *testing.T) {
	if h := NewHarness(runner.New(2), nil, nil, Hooks{}, Limits{}); h.budget != nil {
		t.Fatal("zero Limits must build no budget")
	}
}

func TestQuotaMaxCells(t *testing.T) {
	var calls atomic.Int64
	h := NewHarness(runner.New(2), nil, countingCompute(&calls, runner.CellResult{Value: 1}), Hooks{}, Limits{MaxCells: 2})
	for i := 0; i < 2; i++ {
		if _, err := h.cell(bgCtx, runner.Key{Bench: "cell", Size: i}); err != nil {
			t.Fatalf("cell %d within budget: %v", i, err)
		}
	}
	// Budget spent: the next cell — even one already cached — is refused.
	_, err := h.cell(bgCtx, runner.Key{Bench: "cell", Size: 0})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("cell past budget = %v, want ErrQuotaExceeded", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("compute ran %d times, want 2: compute must not run past the budget", calls.Load())
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "cells" || qe.Used != 2 || qe.Limit != 2 {
		t.Fatalf("QuotaError = %+v", qe)
	}
	if !strings.Contains(err.Error(), "cells") {
		t.Fatalf("error text %q does not name the resource", err)
	}
	if err := directRun(h, func(*mpt.Ctx) (any, error) {
		t.Error("direct run must not run past the budget")
		return nil, nil
	}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("direct run past budget = %v, want ErrQuotaExceeded", err)
	}
}

func TestQuotaHitsAreFree(t *testing.T) {
	var calls atomic.Int64
	compute := countingCompute(&calls, runner.CellResult{Value: 3})
	r := runner.New(2)
	x := NewHarness(r, nil, compute, Hooks{}, Limits{MaxCells: 1})
	key := runner.Key{Bench: "free-hit"}
	if _, err := x.cell(bgCtx, key); err != nil {
		t.Fatal(err)
	}
	// Only simulations charge a budget. Demonstrate it before
	// exhaustion (a spent budget refuses even hits): with budget 2, a
	// hit between two misses does not consume a cell.
	y := NewHarness(runner.New(2, runner.WithCache(r.Cache())), nil, compute, Hooks{}, Limits{MaxCells: 2})
	if _, err := y.cell(bgCtx, key); err != nil { // hit: free
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := y.cell(bgCtx, runner.Key{Bench: "free-hit", Size: i + 1}); err != nil {
			t.Fatalf("miss %d: budget 2 must admit 2 simulations after a free hit: %v", i, err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("compute ran %d times, want 3: the hit must not simulate", calls.Load())
	}
}

func TestQuotaMaxVirtualTime(t *testing.T) {
	// Every cell charges 40ms virtual.
	var calls atomic.Int64
	h := NewHarness(runner.New(1), nil, countingCompute(&calls, runner.CellResult{Value: 1, Virtual: 40 * time.Millisecond}),
		Hooks{}, Limits{MaxVirtualTime: 50 * time.Millisecond})
	// The first cell is under budget, admitted. The second overshoots
	// to 80ms — in-flight work completes and is charged.
	for i := 0; i < 2; i++ {
		if _, err := h.cell(bgCtx, runner.Key{Bench: "vt", Size: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Now the budget is exhausted: refused before scheduling.
	_, err := h.cell(bgCtx, runner.Key{Bench: "vt", Size: 2})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("cell past virtual budget = %v, want ErrQuotaExceeded", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("compute ran %d times, want 2: compute must not run past the virtual-time budget", calls.Load())
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
	var calls atomic.Int64
	compute := countingCompute(&calls, runner.CellResult{Value: 7})
	cache := runner.NewCache()
	quotad := NewHarness(runner.New(2, runner.WithCache(cache)), nil, compute, Hooks{}, Limits{MaxCells: 1})
	if _, err := quotad.cell(bgCtx, runner.Key{Bench: "ok"}); err != nil {
		t.Fatal(err)
	}
	refusedKey := runner.Key{Bench: "refused"}
	if _, err := quotad.cell(bgCtx, refusedKey); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("expected quota breach, got %v", err)
	}
	// The refusal must not have been memoized: an unquota'd harness
	// sharing the cache computes the cell normally.
	free := NewHarness(runner.New(2, runner.WithCache(cache)), nil, compute, Hooks{}, Limits{})
	v, err := free.cell(bgCtx, refusedKey)
	if err != nil || v != 7 {
		t.Fatalf("shared cache poisoned by quota breach: %v, %v", v, err)
	}
	if cache.Len() != 2 || calls.Load() != 2 {
		t.Fatalf("cache holds %d cells after %d computes, want 2 and 2 (ok + refused-then-computed)", cache.Len(), calls.Load())
	}
}

func TestQuotaChargesFailedSimulations(t *testing.T) {
	boom := errors.New("boom")
	h := NewHarness(runner.New(1), nil, func(_ context.Context, key runner.Key) (runner.CellResult, error) {
		if key.Bench == "fail" {
			return runner.CellResult{}, boom
		}
		return runner.CellResult{Value: 1}, nil
	}, Hooks{}, Limits{MaxCells: 1})
	if _, err := h.cell(bgCtx, runner.Key{Bench: "fail"}); !errors.Is(err, boom) {
		t.Fatalf("failing cell error = %v", err)
	}
	if _, err := h.cell(bgCtx, runner.Key{Bench: "next"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("failed simulation must still charge the budget: %v", err)
	}
}

// panicking computes every cell with compute, except the cell keyed
// Bench == boom, which panics.
func panicking(boom string, compute func(context.Context, runner.Key) (runner.CellResult, error)) func(context.Context, runner.Key) (runner.CellResult, error) {
	return func(ctx context.Context, key runner.Key) (runner.CellResult, error) {
		if key.Bench == boom {
			panic("boom")
		}
		return compute(ctx, key)
	}
}

func TestQuotaChargesPanickingCell(t *testing.T) {
	// A panicking user factory still ran a simulation: the charge must
	// land even though compute never returned, or a crashing tenant
	// simulates for free.
	var calls atomic.Int64
	h := NewHarness(runner.New(1), nil, panicking("kaboom-quota", countingCompute(&calls, runner.CellResult{Value: 1})),
		Hooks{}, Limits{MaxCells: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic must propagate to the computing caller")
			}
		}()
		_, _ = h.cell(bgCtx, runner.Key{Bench: "kaboom-quota"})
	}()
	_, err := h.cell(bgCtx, runner.Key{Bench: "after-kaboom"})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("cell after a panicked cell = %v, want ErrQuotaExceeded", err)
	}
	if calls.Load() != 0 {
		t.Fatal("compute must not run: the panicked cell spent the budget")
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
	var calls atomic.Int64
	h := NewHarness(runner.New(1), nil, panicking("kaboom-vt", countingCompute(&calls, runner.CellResult{Value: 1, Virtual: 10 * time.Millisecond})),
		Hooks{}, Limits{MaxVirtualTime: 50 * time.Millisecond})
	func() {
		defer func() { _ = recover() }()
		_, _ = h.cell(bgCtx, runner.Key{Bench: "kaboom-vt"})
	}()
	if _, err := h.cell(bgCtx, runner.Key{Bench: "after-kaboom-vt"}); err != nil {
		t.Fatalf("virtual-time budget must survive a panicked cell: %v", err)
	}
}

func TestQuotaChargesDo(t *testing.T) {
	// Direct (non-memoized) runs are simulations too: a direct-run-only
	// workload must deplete its cell budget.
	h := NewHarness(runner.New(1), nil, nil, Hooks{}, Limits{MaxCells: 2})
	for i := 0; i < 2; i++ {
		if err := directRun(h, noop); err != nil {
			t.Fatalf("direct run %d within budget: %v", i, err)
		}
	}
	if err := directRun(h, func(*mpt.Ctx) (any, error) {
		t.Error("must not run")
		return nil, nil
	}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("direct run past a spent budget = %v, want ErrQuotaExceeded", err)
	}
	if _, err := h.cell(bgCtx, runner.Key{Bench: "after-do"}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("cell past a budget spent by direct runs = %v, want ErrQuotaExceeded", err)
	}
}

func TestQuotaBoundsConcurrentFanOutOvershoot(t *testing.T) {
	// The admission gate must keep a wide fan-out from slipping past
	// the budget wholesale: with slow cells and a concurrent Collect,
	// the number of simulations may overshoot MaxCells by at most the
	// parallelism bound.
	const workers, budget, fanout = 2, 3, 40
	var simulated atomic.Int64
	h := NewHarness(runner.New(workers), nil, func(context.Context, runner.Key) (runner.CellResult, error) {
		simulated.Add(1)
		time.Sleep(2 * time.Millisecond) // realistic cell duration
		return runner.CellResult{Value: 1}, nil
	}, Hooks{}, Limits{MaxCells: budget})
	jobs := make([]int, fanout)
	for i := range jobs {
		jobs[i] = i
	}
	_, err := runner.Collect(bgCtx, h.x, jobs, func(i int) (float64, error) {
		return h.cell(bgCtx, runner.Key{Bench: "wide", Size: i})
	})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("wide fan-out past budget = %v, want ErrQuotaExceeded", err)
	}
	if got := simulated.Load(); got > budget+workers {
		t.Fatalf("fan-out simulated %d cells, want <= budget %d + parallelism %d", got, budget, workers)
	}
}
