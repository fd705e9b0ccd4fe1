package tooleval

import (
	"tooleval/internal/runner"
	"tooleval/internal/sim"
	"tooleval/internal/store"
)

// ResultStore is the durable result tier: an append-only, checksummed
// segment file of memoized simulation cells, content-addressed by the
// same key that drives the in-memory [Cache]. A session configured with
// [WithResultStore] consults it on every cache miss and writes every
// completed cell through, so across process restarts a sweep only
// simulates cells the store has never seen.
//
// The store recovers instead of failing: a segment written by a
// different engine version is invalidated wholesale, and a torn or
// corrupted tail is truncated back to the last intact record — damaged
// cells re-simulate, they are never served. See tooleval/internal/store
// for the on-disk format.
type ResultStore = store.Store

// Tier is the interface a second-tier result store implements; a
// [ResultStore] is the built-in implementation. Attach one to a
// [Cache] with its SetTier method to share one store across sessions
// or executors — [WithResultStore] does exactly that for the session's
// own cache.
type Tier = runner.Tier

// OpenResultStore opens (creating if needed) the durable result store
// in dir, stamped with the current engine version. Damaged contents are
// recovered, not reported: only real IO errors (permissions, dir is a
// file) fail. Close the store when done with it; [WithResultStore]
// sessions own their store and close it in [Session.Close].
func OpenResultStore(dir string) (*ResultStore, error) {
	return store.Open(dir, sim.EngineVersion)
}

// WithResultStore attaches the durable result tier in dir to the
// session's cache: cache misses consult the store before simulating
// (a stored cell is a hit — free under quotas, reported cached to
// observers), and every successfully computed cell is persisted.
// Results are deterministic functions of their keys, so replayed cells
// are byte-identical to re-simulated ones at any parallelism.
//
// The store attaches to whichever cache the session's executor
// carries — the built-in pool's, the shared [WithCache] one, or the
// cache of the executor given to [WithExecutor].
//
// The session owns the opened store: call [Session.Close] to sync and
// close it (and surface any write error). NewSession panics if the
// store cannot be opened or created (a damaged store is recovered, not
// an error), or if the session's cache already has a tier attached
// (two sessions pointing one shared [WithCache] cache at different
// stores would be a configuration bug; attach the store to the shared
// cache once, outside the sessions, instead).
func WithResultStore(dir string) Option {
	return func(c *sessionConfig) { c.storeDir = dir }
}
