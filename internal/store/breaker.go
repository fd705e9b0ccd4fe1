package store

import (
	"time"

	"tooleval/internal/breaker"
)

// CircuitState names the store's write-path health.
type CircuitState string

const (
	// CircuitClosed: writes flow normally.
	CircuitClosed CircuitState = "closed"
	// CircuitOpen: writes failed repeatedly; the store is lookup-only
	// until the backoff interval passes.
	CircuitOpen CircuitState = "open"
	// CircuitHalfOpen: the backoff has elapsed; the next Fill is the
	// probe that decides between re-closing and re-opening.
	CircuitHalfOpen CircuitState = "half-open"
)

// circuitState maps the write-path breaker onto the store's state
// names at time now. Half-open is the open circuit whose backoff has
// elapsed: the next admitted Fill will be the probe.
func circuitState(b *breaker.Breaker, now time.Time) CircuitState {
	switch {
	case !b.Open():
		return CircuitClosed
	case b.ProbeDue(now):
		return CircuitHalfOpen
	default:
		return CircuitOpen
	}
}

// Health is a snapshot of the store's write-path circuit, for
// /healthz, /statsz, and tests.
type Health struct {
	// State is the circuit state: closed (healthy), open (lookup-only,
	// waiting out the backoff), or half-open (next Fill probes).
	State CircuitState
	// Err is the last write failure; nil when the circuit is closed.
	Err error
	// Failures counts consecutive write failures since the last
	// success.
	Failures int
	// Trips counts how many times the circuit has opened.
	Trips int64
	// Probes counts half-open probe writes admitted.
	Probes int64
	// Dropped counts fills skipped while the circuit was open.
	Dropped int64
	// RetryAt is when the open circuit next admits a probe; zero when
	// closed.
	RetryAt time.Time
}

// Health reports the write-path circuit snapshot.
func (s *Store) Health() Health {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b := &s.br
	return Health{
		State:    circuitState(b, s.now()),
		Err:      b.Err(),
		Failures: b.Failures(),
		Trips:    b.Trips(),
		Probes:   b.Probes(),
		Dropped:  b.Dropped(),
		RetryAt:  b.RetryAt(),
	}
}
