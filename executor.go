package tooleval

import (
	"time"

	"tooleval/internal/bench"
	"tooleval/internal/remote"
	"tooleval/internal/runner"
)

// Executor is the session's execution backend: the scheduler every
// simulation cell, direct run, and fan-out goes through. The built-in
// implementation (selected by default, configured with
// [WithParallelism] and [WithCache]) is an in-process bounded worker
// pool over a memoization [Cache]; [WithExecutor] swaps in another
// implementation without the Session layer changing. An Executor holds
// no per-session state: quota budgets and events stay with the session,
// which charges and reports each cell where it resolves.
//
// See the method contracts on the interface definition. The invariants
// an implementation must keep are: Memo is single-flight per [Cell]
// key and never caches context errors; and Map reports the
// lowest-index error among the indices that ran.
type Executor = runner.Executor

// CellResult is what one simulated cell reports to its Executor: the
// measured value plus the virtual wall-clock the simulation covered
// (the currency of [WithMaxVirtualTime] budgets).
type CellResult = runner.CellResult

// CacheStats snapshots a cache's memoization counters; see
// [Session.Stats].
type CacheStats = runner.Stats

// ErrQuotaExceeded is the sentinel a session's exhausted resource
// budget unwraps to; match it with errors.Is. The concrete error is
// always a [*QuotaError].
var ErrQuotaExceeded = bench.ErrQuotaExceeded

// QuotaError reports which session budget broke and by how much.
type QuotaError = bench.QuotaError

// WithExecutor makes the session schedule through x instead of the
// built-in worker pool. The executor owns parallelism, so
// [WithParallelism] is ignored when this option is present. Everything
// else layers onto x as it would onto the built-in pool: a
// [ResultStore] attached to x's cache serves its misses, quota budgets
// are charged where each cell x memoizes resolves (and bound x's
// direct runs too), and [WithRemoteExecutor] computes on the workers
// the cells x memoizes. To bound x's cache, call SetCapacity on it (or on
// [Session.Cache] afterwards).
//
// Combining [WithCache] with this option makes NewSession panic: x
// already owns its cache, and a second one cannot be installed after
// the fact. Build x over the shared cache instead.
//
// The session charges its budgets and reports its events itself
// ([EventContext]), so x carries no per-session state: sessions handed
// the same x share its pool and its cache, each under its own budgets.
func WithExecutor(x Executor) Option {
	return func(c *sessionConfig) { c.executor = x }
}

// WithRemoteExecutor distributes the session's sweep across worker
// daemons (`toolbench-worker`) at the given addresses ("host:port" or
// http:// URLs). Each cell is routed to a worker by rendezvous-hashing
// its content key — the same FNV hash the durable store fingerprints
// cells by — and the worker recomputes it from the key alone; cells
// are pure functions of their keys, so a distributed sweep is
// byte-identical to a local one. The workers replace only the compute
// step of a cache miss: the session's executor (the built-in pool, or
// the one given to [WithExecutor]) stays on the coordinator and keeps
// memoization and the cache's optional [ResultStore] tier, while quota
// charging and event reporting stay in the session; the executor's
// concurrency bound ([WithParallelism] for the built-in pool) bounds
// the in-flight RPCs. Cells of a [WithTool]
// custom tool compute on the coordinator: the factory exists only in
// this process, so a worker handed the key could not rebuild it.
//
// Worker loss is survived mid-sweep: a failing node's cells fail over
// to the next node in their rendezvous order, and after a few
// consecutive failures the node is ejected (a timed half-open probe
// re-admits it once it recovers). [Session.NodeStats] reports the
// per-node counters. A coordinator/worker engine- or protocol-version
// mismatch fails the sweep with a [*RemoteVersionError] — never a
// result computed under the wrong engine.
//
// NewSession panics when the address list holds a blank or duplicate
// address — one of the two panics listed on [NewSession].
func WithRemoteExecutor(nodes ...string) Option {
	return func(c *sessionConfig) {
		c.workers = append([]string(nil), nodes...)
	}
}

// RemoteNodeStats is one worker's coordinator-side counter snapshot;
// see [Session.NodeStats].
type RemoteNodeStats = remote.NodeStats

// RemoteVersionError is the typed refusal a [WithRemoteExecutor] sweep
// fails with when a worker runs a different simulation-engine or
// wire-protocol version; match it with errors.As.
type RemoteVersionError = remote.VersionError

// WithMaxCells caps how many cells the session may simulate. Cache
// hits are free: only simulations actually executed are charged — each
// miss, and each direct run ([Session.Run], [Session.TraceRun]) — so a
// session replaying memoized results is not billed for them. Once the
// budget is spent, every further cell — hit or miss — fails with a
// [*QuotaError] matching [ErrQuotaExceeded].
// Budgets are checked before a cell is scheduled, so the session can
// overshoot by at most its parallelism bound (cells already in flight
// complete and are charged). n <= 0 means unlimited.
//
// Quota errors are never memoized: a shared [Cache] is not poisoned by
// one tenant's exhausted budget.
func WithMaxCells(n int) Option {
	return func(c *sessionConfig) { c.limits.MaxCells = int64(n) }
}

// WithMaxVirtualTime caps the summed virtual wall-clock of the cells
// the session simulates — the discrete-event analogue of a CPU-seconds
// budget. Charging and breach semantics match [WithMaxCells]: a direct
// run charges the virtual time it covered. d <= 0 means unlimited.
func WithMaxVirtualTime(d time.Duration) Option {
	return func(c *sessionConfig) { c.limits.MaxVirtualTime = d }
}
