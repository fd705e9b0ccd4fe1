package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrQuotaExceeded is the sentinel every quota breach unwraps to; match
// it with errors.Is. The concrete error is always a *QuotaError
// carrying which budget broke and by how much.
var ErrQuotaExceeded = errors.New("session quota exceeded")

// QuotaError reports one exhausted session budget.
type QuotaError struct {
	// Resource names the budget: "cells" or "virtual time".
	Resource string
	// Used and Limit are counts for "cells", nanoseconds for
	// "virtual time".
	Used, Limit int64
}

func (e *QuotaError) Error() string {
	if e.Resource == "virtual time" {
		return fmt.Sprintf("%v: %s budget %v spent (%v simulated)",
			ErrQuotaExceeded, e.Resource, time.Duration(e.Limit), time.Duration(e.Used))
	}
	return fmt.Sprintf("%v: %s budget %d spent (%d simulated)",
		ErrQuotaExceeded, e.Resource, e.Limit, e.Used)
}

// Unwrap makes errors.Is(err, ErrQuotaExceeded) match.
func (e *QuotaError) Unwrap() error { return ErrQuotaExceeded }

// Limits bounds what one session may consume. The zero value means
// unlimited.
type Limits struct {
	// MaxCells caps how many cells the session may simulate (cache
	// misses; hits are free until a budget is already exhausted).
	// 0 = unlimited.
	MaxCells int64
	// MaxVirtualTime caps the summed virtual wall-clock of the cells
	// the session simulates. 0 = unlimited.
	MaxVirtualTime time.Duration
}

func (l Limits) zero() bool { return l.MaxCells <= 0 && l.MaxVirtualTime <= 0 }

// NewQuota wraps base with per-session resource budgets, implementing
// the ROADMAP's multi-tenant fairness item at the executor seam so any
// backend — the in-process pool or a remote one — is bounded the same
// way. With zero Limits it returns base unwrapped.
//
// Budgets are enforced before each cell is scheduled: once a budget is
// exhausted, every further Memo and Do call fails with a *QuotaError
// (errors.Is ErrQuotaExceeded). Admission is gated to the backend's
// parallelism bound, so at most Workers() calls can pass the budget
// check before the charges of the cells ahead of them land: charging
// happens when a simulation completes, cells in flight at the moment
// of breach finish and are charged, and a session overshoots by at
// most its parallelism bound — a wide fan-out cannot slip past the
// budget wholesale. Memoized cells charge both budgets (their
// CellResult reports the virtual clock); direct Do runs charge one
// cell each but no virtual time, since Do carries no timing report.
//
// Quota errors are raised outside the memoization path and are
// therefore never cached: a shared Cache is not poisoned by one
// tenant's exhausted budget, and an unquota'd session sharing the
// cache computes the refused cells normally.
func NewQuota(base Executor, lim Limits) Executor {
	if lim.zero() {
		return base
	}
	return &quotaExecutor{
		base: base,
		lim:  lim,
		adm:  make(chan struct{}, base.Workers()),
	}
}

type quotaExecutor struct {
	base Executor
	lim  Limits
	// adm is the admission gate: a counting semaphore as wide as the
	// backend's pool. Holding a slot across the budget check and the
	// delegated call keeps the number of calls that have passed the
	// check but not yet charged bounded by the parallelism bound —
	// without it, every cell of a wide fan-out would pass the check
	// before the first charge landed. Progress is guaranteed because
	// slot holders only wait on simulations, which complete without
	// needing a slot from anyone else.
	adm   chan struct{}
	cells atomic.Int64 // simulations charged
	virt  atomic.Int64 // virtual nanoseconds charged
}

// admit acquires an admission slot and runs the budget check.
func (q *quotaExecutor) admit(ctx context.Context) (release func(), err error) {
	select {
	case q.adm <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if err := q.exceeded(); err != nil {
		<-q.adm
		return nil, err
	}
	return func() { <-q.adm }, nil
}

// exceeded reports the first exhausted budget, or nil.
func (q *quotaExecutor) exceeded() error {
	if q.lim.MaxCells > 0 {
		if used := q.cells.Load(); used >= q.lim.MaxCells {
			return &QuotaError{Resource: "cells", Used: used, Limit: q.lim.MaxCells}
		}
	}
	if q.lim.MaxVirtualTime > 0 {
		if used := q.virt.Load(); used >= int64(q.lim.MaxVirtualTime) {
			return &QuotaError{Resource: "virtual time", Used: used, Limit: int64(q.lim.MaxVirtualTime)}
		}
	}
	return nil
}

func (q *quotaExecutor) Memo(ctx context.Context, key Key, compute func() (CellResult, error)) (float64, error) {
	release, err := q.admit(ctx)
	if err != nil {
		return 0, err
	}
	defer release()
	return q.base.Memo(ctx, key, func() (res CellResult, err error) {
		// Charge on every exit of the closure, panics included: a
		// panicking user factory still ran a simulation, and letting it
		// escape uncharged would let a crashing tenant bypass its
		// budget. res.Virtual is the virtual clock the cell covered —
		// zero on error/panic paths that never started the engine, so
		// only the cell budget is charged then.
		defer func() {
			q.cells.Add(1)
			q.virt.Add(int64(res.Virtual))
		}()
		return compute()
	})
}

func (q *quotaExecutor) Do(ctx context.Context, fn func() error) error {
	release, err := q.admit(ctx)
	if err != nil {
		return err
	}
	defer release()
	// A direct run is a simulation too: charge it as one cell so a
	// Do-only workload still depletes its budget (Do carries no
	// virtual-time report, so only the cell budget is charged). Charge
	// exactly when fn actually ran — a Do cancelled while waiting for
	// an execution slot did no work.
	ran := false
	err = q.base.Do(ctx, func() error { ran = true; return fn() })
	if ran {
		q.cells.Add(1)
	}
	return err
}

func (q *quotaExecutor) Map(ctx context.Context, n int, fn func(i int) error) error {
	// Per-cell enforcement happens inside fn's Memo/Do calls; Map's
	// early-exit then stops launching further indices.
	return q.base.Map(ctx, n, fn)
}

func (q *quotaExecutor) Workers() int  { return q.base.Workers() }
func (q *quotaExecutor) Stats() Stats  { return q.base.Stats() }
func (q *quotaExecutor) Cache() *Cache { return q.base.Cache() }
