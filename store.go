package tooleval

import (
	"tooleval/internal/runner"
	"tooleval/internal/sim"
	"tooleval/internal/store"
)

// ResultStore is the durable result tier: an append-only, checksummed
// segment file of memoized simulation cells, content-addressed by the
// same key that drives the in-memory [Cache]. Attached to a cache with
// its SetTier method, it is consulted on every cache miss and every
// completed cell is written through, so across process restarts a
// sweep only simulates cells the store has never seen.
//
// The store recovers instead of failing: a segment written by a
// different engine version is invalidated wholesale, and a torn or
// corrupted tail is truncated back to the last intact record — damaged
// cells re-simulate, they are never served. A write error latches the
// store lookup-only (results stay correct; new cells go unpersisted):
// Err reports it mid-run and Close returns it. See
// tooleval/internal/store for the on-disk format.
type ResultStore = store.Store

// Tier is the interface a second-tier result store implements; a
// [ResultStore] is the built-in implementation. Attach one to a
// [Cache] with its SetTier method, then hand the cache to every
// session that should share it ([WithCache]) or build a
// [WithExecutor] executor over it. SetTier panics if the cache
// already carries a tier.
type Tier = runner.Tier

// OpenResultStore opens (creating if needed) the durable result store
// in dir, stamped with the current engine version. Damaged contents are
// recovered, not reported: only real IO errors (permissions, dir is a
// file) fail. The caller owns the store: attach it to a cache, and
// Close it when the sessions using it are done — Close syncs the
// segment and returns any latched write error.
func OpenResultStore(dir string) (*ResultStore, error) {
	return store.Open(dir, sim.EngineVersion)
}
