package bench

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
	// misses and direct runs; hits are free until a budget is already
	// exhausted). 0 = unlimited.
	MaxCells int64
	// MaxVirtualTime caps the summed virtual wall-clock of the cells
	// the session simulates. 0 = unlimited.
	MaxVirtualTime time.Duration
}

// budget enforces one harness's Limits. Harness.cell and Harness.Run
// admit each call before scheduling it and charge it where the
// simulation ran, so the executor below stays a scheduler with no
// per-session state.
//
// Once a budget is exhausted every further call — hit or miss — fails
// with a *QuotaError. Charges land when a simulation completes, so
// without a gate a wide fan-out could pass the check wholesale before
// the first charge. adm is that gate: a counting semaphore as wide as
// the executor's pool, held across the check and the call, so at most
// Workers() calls are past the check but not yet charged and a session
// overshoots by at most its parallelism bound. Progress is guaranteed
// because slot holders wait only on simulations, which complete without
// needing a slot from anyone else.
//
// A refusal is raised before the executor sees the call, so it is never
// memoized: a shared cache is not poisoned by one tenant's exhausted
// budget.
type budget struct {
	lim   Limits
	adm   chan struct{}
	cells atomic.Int64 // simulations charged
	virt  atomic.Int64 // virtual nanoseconds charged
}

// newBudget returns the budget enforcing lim over an executor of the
// given width, or nil when lim bounds nothing.
func newBudget(lim Limits, workers int) *budget {
	if lim.MaxCells <= 0 && lim.MaxVirtualTime <= 0 {
		return nil
	}
	return &budget{lim: lim, adm: make(chan struct{}, workers)}
}

// acquire takes an admission slot, waiting under ctx; the caller
// releases it once the call it admits has been charged.
func (b *budget) acquire(ctx context.Context) error {
	select {
	case b.adm <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *budget) release() { <-b.adm }

// exceeded reports the first exhausted budget, or nil.
func (b *budget) exceeded() error {
	if b.lim.MaxCells > 0 {
		if used := b.cells.Load(); used >= b.lim.MaxCells {
			return &QuotaError{Resource: "cells", Used: used, Limit: b.lim.MaxCells}
		}
	}
	if b.lim.MaxVirtualTime > 0 {
		if used := b.virt.Load(); used >= int64(b.lim.MaxVirtualTime) {
			return &QuotaError{Resource: "virtual time", Used: used, Limit: int64(b.lim.MaxVirtualTime)}
		}
	}
	return nil
}

// charge bills one simulation that covered virtual of simulated time.
func (b *budget) charge(virtual time.Duration) {
	b.cells.Add(1)
	b.virt.Add(int64(virtual))
}
