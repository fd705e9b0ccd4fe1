// Package breaker is the circuit breaker shared by the durable store's
// write path and the remote coordinator's per-node ejection.
//
// Closed is normal operation; threshold consecutive failures open the
// circuit and start the backoff clock. Once the backoff elapses the
// circuit is half-open: exactly one attempt is admitted as a probe. A
// successful probe closes the circuit; a failed one re-opens it with
// the backoff doubled (capped at max), so a persistently sick resource
// is probed ever more rarely instead of hammered.
//
// A Breaker carries no lock: each caller guards it with the mutex that
// already protects the state it sits next to.
package breaker

import "time"

// Defaults: trip after 3 consecutive failures, first probe after
// 100ms, backoff doubling up to 10s.
const (
	defaultThreshold = 3
	defaultBase      = 100 * time.Millisecond
	defaultMax       = 10 * time.Second
)

// Breaker is one circuit's state. The zero value is not usable; build
// it with New.
type Breaker struct {
	threshold int
	base, max time.Duration

	open     bool
	failures int   // consecutive failures (resets on success)
	err      error // last failure; nil after a success
	backoff  time.Duration
	retryAt  time.Time

	trips   int64 // times the circuit opened
	probes  int64 // half-open probes admitted
	dropped int64 // attempts refused while open
}

// New returns a closed breaker that trips after threshold consecutive
// failures, first probes after base, and doubles the backoff up to
// max. Non-positive values select the defaults, and max is raised to
// at least base, so a failed probe never shortens the backoff.
func New(threshold int, base, max time.Duration) Breaker {
	if threshold <= 0 {
		threshold = defaultThreshold
	}
	if base <= 0 {
		base = defaultBase
	}
	if max < base {
		max = defaultMax
		if max < base {
			max = base
		}
	}
	return Breaker{threshold: threshold, base: base, max: max}
}

// Allow reports whether an attempt may proceed at time now. An open
// circuit admits nothing until the backoff elapses, then admits the
// probe and pushes the window forward, so a probe that hangs does not
// let a burst of attempts pile in behind it.
func (b *Breaker) Allow(now time.Time) bool {
	if !b.open {
		return true
	}
	if now.Before(b.retryAt) {
		b.dropped++
		return false
	}
	b.probes++
	b.retryAt = now.Add(b.backoff)
	return true
}

// Fail records a failure at time now, opening the circuit when the
// threshold is reached, or, if the circuit is already open (the probe
// failed), re-opening it with the backoff doubled up to max.
func (b *Breaker) Fail(now time.Time, err error) {
	b.err = err
	if b.open {
		b.backoff = min(2*b.backoff, b.max)
		b.retryAt = now.Add(b.backoff)
		return
	}
	b.failures++
	if b.failures >= b.threshold {
		b.open = true
		b.trips++
		b.backoff = b.base
		b.retryAt = now.Add(b.backoff)
	}
}

// OK records a success: the consecutive-failure state clears, and an
// open circuit (the probe succeeded) closes.
func (b *Breaker) OK() {
	b.open = false
	b.failures = 0
	b.err = nil
	b.backoff = 0
	b.retryAt = time.Time{}
}

// Open reports whether the circuit is open (tripped and not yet
// closed by a successful probe).
func (b *Breaker) Open() bool { return b.open }

// ProbeDue reports whether the circuit is open and its backoff has
// elapsed at time now: the next Allow admits the probe.
func (b *Breaker) ProbeDue(now time.Time) bool { return b.open && !now.Before(b.retryAt) }

// Err returns the last failure, nil after a success.
func (b *Breaker) Err() error { return b.err }

// RetryAt is when the open circuit next admits a probe; zero when
// closed.
func (b *Breaker) RetryAt() time.Time { return b.retryAt }

// Failures counts consecutive failures since the last success.
func (b *Breaker) Failures() int { return b.failures }

// Trips counts how many times the circuit has opened.
func (b *Breaker) Trips() int64 { return b.trips }

// Probes counts half-open probes admitted.
func (b *Breaker) Probes() int64 { return b.probes }

// Dropped counts attempts refused while the circuit was open.
func (b *Breaker) Dropped() int64 { return b.dropped }
