// Package runner is the concurrent experiment scheduler behind the
// benchmark harness. The paper's methodology is a fixed matrix of
// experiments — platforms × tools × message sizes (TPL) or processor
// counts (APL) — and every cell of that matrix is one independent,
// deterministic virtual-time simulation (one mpt.Run). The runner
// exploits both properties:
//
//   - Independence: cells fan out over a bounded worker pool (the -j
//     flag of cmd/toolbench; default GOMAXPROCS). Map preserves the
//     caller's index order, so after the fan-out the assembled results
//     are bit-identical to a serial sweep. Workers == 1 degenerates to
//     the plain serial loop with no goroutines at all.
//
//   - Determinism: a cell's result is a pure function of its content
//     key (platform, tool, benchmark, procs, size/scale), so results
//     are memoized in a Cache. Re-running a cell — e.g. `toolbench all`
//     computing Figure 2 and the closing report needing the same curves
//     for the methodology input — is a cache hit and simulates exactly
//     once. Concurrent requests for the same in-flight cell coalesce
//     (single-flight) rather than duplicating the simulation.
//
// The scheduler surface callers program against is the Executor
// interface; Runner, the bounded pool, is its in-process
// implementation. An Executor holds no per-session state: budgets and
// events belong to the layer above, which charges and reports each
// cell where it resolves.
//
// There is deliberately no process-global runner: every evaluation
// session owns its Executor (and usually its Cache), so concurrent
// sessions never share or clobber each other's parallelism bound,
// memoization, or statistics. A Cache can be shared across Runners
// explicitly, which keeps the counters and memoized cells with the
// cache rather than with any one pool.
//
// Cancellation is observed between simulation cells: Map checks the
// context before starting each index and Memo checks it before
// computing (or while waiting on an in-flight computation). A cell
// that has started always runs to completion — individual cells are
// milliseconds of work, and abandoning a published in-flight entry
// would strand coalesced waiters.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Key identifies one experiment cell: one simulated run in the paper's
// evaluation matrix. Two cells with equal keys are the same simulation
// and therefore — virtual time being deterministic — have equal
// results. The zero value of unused fields participates in equality, so
// benchmarks that have no Size (APL sweeps) or no Scale (TPL
// micro-benchmarks) simply leave them zero. The JSON tags are the wire
// form of a cell in toolbenchd's events and in the cell RPC; a zero
// field is left out, and decodes back to the same key.
type Key struct {
	// Platform is the platform catalog key ("sun-ethernet", ...).
	Platform string `json:"platform"`
	// Tool is the message-passing tool ("p4", "pvm", "express").
	Tool string `json:"tool"`
	// Bench names the benchmark or application ("pingpong", "ring",
	// "apl/jpeg", ...).
	Bench string `json:"bench"`
	// Procs is the rank count of the cell.
	Procs int `json:"procs,omitempty"`
	// Size is the message size in bytes (TPL) or vector length
	// (global sum); zero for APL cells.
	Size int `json:"size,omitempty"`
	// Scale is the APL workload scale; zero for TPL cells.
	Scale float64 `json:"scale,omitempty"`
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s/%s procs=%d size=%d scale=%g", k.Platform, k.Tool, k.Bench, k.Procs, k.Size, k.Scale)
}

// CellResult is what one simulated cell reports back to the scheduler:
// the measured value (milliseconds for TPL cells, seconds for APL
// cells) plus the virtual wall-clock the simulation covered. Virtual is
// the currency of WithMaxVirtualTime budgets — the harness charges it
// when the cell is actually simulated, never on a cache hit.
type CellResult struct {
	Value   float64
	Virtual time.Duration
}

// Stats counts cache traffic. Misses is exactly the number of
// simulations executed through Memo against the cache.
type Stats struct {
	Hits   int64 // served from cache, or coalesced onto an in-flight compute
	Misses int64 // computed by this call
}

// Executor is the execution-backend seam: the scheduler contract the
// session layer and the bench harness program against. Runner is the
// in-process implementation (a bounded worker pool over a memoization
// Cache); other implementations (WithExecutor in the session layer)
// slot in without the layers above changing. Remote workers are not an
// Executor: they replace only the compute step a Memo runs on a miss.
type Executor interface {
	// Memo resolves one memoized cell: it returns the cached value for
	// key, or invokes compute (under an execution slot) and caches the
	// outcome. Context errors are returned as-is and never cached.
	Memo(ctx context.Context, key Key, compute func() (CellResult, error)) (float64, error)
	// Do runs fn under an execution slot, bounding direct (non-memoized)
	// simulations by the same parallelism as memoized cells.
	Do(ctx context.Context, fn func() error) error
	// Map fans fn(0..n-1) out across the backend. Implementations must
	// preserve the Runner.Map contract: the first (lowest-index) error
	// among the indices that ran is returned, and callers assembling
	// into index i of a pre-sized slice observe serial-loop ordering.
	Map(ctx context.Context, n int, fn func(i int) error) error
	// Workers reports the backend's concurrency bound.
	Workers() int
	// Stats snapshots the memoization counters.
	Stats() Stats
	// Cache returns the backend's memoization store.
	Cache() *Cache
}

// Runner schedules experiment cells over a bounded pool and memoizes
// their results in its Cache. It is the in-process Executor. The zero
// value is not usable; call New.
type Runner struct {
	workers int
	sem     chan struct{} // counting semaphore; one token per running cell
	cache   *Cache
}

var _ Executor = (*Runner)(nil)

// execConfig is New's option state: which cache to memoize into.
type execConfig struct {
	cache *Cache
}

// Option configures a Runner under construction (see New).
type Option func(*execConfig)

// WithCache makes the executor memoize into c instead of a fresh
// private cache. Sharing one Cache across executors pools their
// results; the hit/miss counters travel with the cache.
func WithCache(c *Cache) Option {
	return func(cfg *execConfig) {
		if c != nil {
			cfg.cache = c
		}
	}
}

// New returns a Runner executing at most workers simulations at once.
// workers < 1 selects GOMAXPROCS.
func New(workers int, opts ...Option) *Runner {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var cfg execConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.cache == nil {
		cfg.cache = NewCache()
	}
	return &Runner{
		workers: workers,
		sem:     make(chan struct{}, workers),
		cache:   cfg.cache,
	}
}

// Workers reports the pool bound.
func (r *Runner) Workers() int { return r.workers }

// Cache returns the Runner's memoization store.
func (r *Runner) Cache() *Cache { return r.cache }

// Stats snapshots the cache counters (shared counters, if the cache is
// shared).
func (r *Runner) Stats() Stats { return r.cache.Stats() }

// Memo returns the memoized result for key, invoking compute (under a
// worker-pool token) only if no completed or in-flight computation for
// key exists. When the cache carries a durable second tier
// (Cache.SetTier), a miss consults the tier before computing — a stored
// cell counts as a hit and is never re-simulated — and every
// successfully computed cell is written through to the tier.
//
// Which errors are memoized is part of the contract. Deterministic
// failures — an error or panic out of compute itself — are cached: a
// failed cell fails the same way on every retry, which is itself a
// deterministic fact worth keeping (in the memory tier only; error
// cells are never written to a durable tier). Context errors are the
// opposite of deterministic — they describe the calling tenant, not the
// cell — and are never cached: a compute that returns ctx.Err() (a
// cancelled tenant's factory bailing out) has its entry retracted from
// the cache and nothing written to any tier, so a shared or durable
// cache is never poisoned by one tenant's cancellation. Its coalesced
// waiters do not inherit that foreign error either: a waiter whose own
// ctx is still live resolves the key again, and one whose ctx is done
// returns its own ctx.Err().
//
// ctx is observed while waiting for a worker-pool token and while
// waiting on an in-flight computation, so cancelling a sweep also
// drains the cells still queued behind the semaphore; once compute has
// been started by this call it runs to completion (a cell is
// milliseconds of simulation). A ctx error is returned as-is and is
// never cached.
func (r *Runner) Memo(ctx context.Context, key Key, compute func() (CellResult, error)) (float64, error) {
	c := r.cache
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		c.mu.Lock()
		e, ok := c.lookupLocked(key)
		c.mu.Unlock()
		if !ok {
			// Acquire the pool token before committing to compute, so a
			// queued cell can still be cancelled. Another goroutine may
			// have published the key meanwhile — re-check under the lock.
			select {
			case r.sem <- struct{}{}:
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			c.mu.Lock()
			if e, ok = c.lookupLocked(key); !ok {
				e = c.insertLocked(key)
				c.mu.Unlock()
				return r.fill(key, e, compute)
			}
			c.mu.Unlock()
			<-r.sem
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			// The call did not resolve a cell: no hit.
			return 0, ctx.Err()
		}
		if isContextErr(e.err) {
			// The owner's compute was aborted by the owner's context and
			// its entry retracted; the loop re-checks this caller's ctx
			// and resolves the key afresh.
			continue
		}
		c.hits.Add(1)
		return e.val, e.err
	}
}

// isContextErr reports a cancellation or deadline error: an outcome
// that describes the caller rather than the cell, so Memo never caches
// it.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// fill resolves the in-flight entry e that this Memo call published for
// key, holding a worker-pool token that it releases.
func (r *Runner) fill(key Key, e *entry, compute func() (CellResult, error)) (float64, error) {
	c := r.cache
	// Before simulating, consult the durable second tier: a stored cell
	// is a hit — deterministic, so the stored result IS the result —
	// served without charging a miss (or, since compute never runs, a
	// budget).
	tier := c.Tier()
	if tier != nil {
		if res, ok := tier.Lookup(key); ok {
			e.val = res.Value
			c.hits.Add(1)
			<-r.sem
			close(e.done)
			return e.val, nil
		}
	}

	c.misses.Add(1)
	// Release the token and wake waiters even if compute panics
	// (user-supplied factories/apps run inside cells): a leaked token
	// would shrink the pool and a never-closed done channel would
	// strand every coalesced waiter. The panic is cached as the cell's
	// error — waiters must not read the zero value as success — and
	// re-raised on this goroutine.
	var res CellResult
	defer func() {
		if p := recover(); p != nil {
			e.err = fmt.Errorf("runner: cell %s panicked: %v", key, p)
			<-r.sem
			close(e.done)
			panic(p)
		}
		switch {
		case e.err == nil:
			// Write the completed cell through to the durable tier —
			// outside the cache lock's critical section, so a disk append
			// never extends any lock hold.
			if tier != nil {
				tier.Fill(key, res)
			}
		case isContextErr(e.err):
			// The Memo contract: context errors are never cached. This
			// compute was aborted by its tenant's cancellation, which says
			// nothing about the cell — retract the entry (before waking
			// the waiters, which then re-resolve the key) so the next
			// request re-simulates. Nothing reaches the durable tier
			// either.
			c.remove(key, e)
		}
		<-r.sem
		close(e.done)
	}()
	res, e.err = compute()
	e.val = res.Value
	return e.val, e.err
}

// Do runs fn under a worker-pool token, bounding direct (non-memoized)
// simulations by the same parallelism as memoized cells. ctx is
// observed while waiting for a token; once fn starts it runs to
// completion. Do must not be called from inside a Memo compute (the
// caller would already hold a token).
func (r *Runner) Do(ctx context.Context, fn func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-r.sem }()
	return fn()
}

// Map runs fn(0..n-1), fanning the indices out across goroutines while
// the worker-pool semaphore inside Memo bounds how many simulations are
// actually in flight. Callers write results into index i of a
// pre-sized slice, so assembled output is ordered exactly as a serial
// loop would produce it. The first non-nil error (lowest index among
// the indices that ran) is returned; once any index fails, indices
// that have not started yet are skipped, mirroring the serial loop's
// early exit. With workers == 1 the indices run serially in order on
// the calling goroutine — the original serial code path, not a
// simulation of it.
//
// ctx is checked before each index starts: a cancelled context stops
// launching new indices and Map returns ctx.Err() (indices already
// running complete first).
//
// At most workers goroutines are launched regardless of n — a generated
// 100k-cell sweep must not spawn 100k goroutines just to funnel them
// through a 4-token semaphore. The goroutines dispatch indices in
// ascending order from a shared counter, so index assignment stays
// dense and the lowest-index-error rule means the same thing it does
// serially.
//
// Map may nest (a figure fans out platform×tool jobs whose bodies fan
// out sizes): each level bounds its own goroutines, and only Memo's
// compute holds a pool token, so outer levels never starve inner ones.
func (r *Runner) Map(ctx context.Context, n int, fn func(i int) error) error {
	workers := r.workers
	if n <= 0 {
		return nil // an empty sweep is a no-op even under a cancelled ctx
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64 // the dispatch counter the workers draw from
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Collect is the ordered fan-out idiom every experiment uses: run fn
// over each job, assembling the results in job order. It is Map plus
// the pre-sized result slice, so call sites cannot get the
// ordered-assembly invariant wrong. It works over any Executor.
func Collect[J, R any](ctx context.Context, x Executor, jobs []J, fn func(J) (R, error)) ([]R, error) {
	out := make([]R, len(jobs))
	err := x.Map(ctx, len(jobs), func(i int) error {
		var err error
		out[i], err = fn(jobs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
