package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tooleval"
)

// tenant is one isolated evaluation principal: its own Session (own
// executor, budgets, stats) over the server's shared cache, plus the
// admission state and counters the handlers maintain.
type tenant struct {
	id   string
	tier QuotaTier
	sess *tooleval.Session

	// jobSlots is the concurrent-job gate (nil = unlimited): acquire
	// is non-blocking, because the tier's job limit is a refusal
	// surface (429), not a queue.
	jobSlots chan struct{}

	jobsActive   atomic.Int64
	jobsStarted  atomic.Int64
	jobsDone     atomic.Int64
	jobsRefused  atomic.Int64
	specsDone    atomic.Int64
	specsFailed  atomic.Int64
	cells        atomic.Int64 // cell completions observed by this tenant's jobs
	cellsCached  atomic.Int64 // ... of which served from cache or store
	jobNanosEWMA atomic.Int64 // smoothed job duration, feeds Retry-After
}

// acquireJob takes a job slot, or refuses with a typed quota error —
// the same *tooleval.QuotaError shape session budgets raise, so one
// errors.As covers every 429 the server produces. On success the
// returned closure ends the job: it releases the slot taken and folds
// the job's duration, timed from this call, into the Retry-After EWMA.
func (t *tenant) acquireJob() (release func(), err error) {
	if t.jobSlots != nil {
		select {
		case t.jobSlots <- struct{}{}:
		default:
			t.jobsRefused.Add(1)
			limit := int64(t.tier.MaxConcurrentJobs)
			return nil, fmt.Errorf("tenant %q: concurrent-job limit reached: %w", t.id,
				&tooleval.QuotaError{Resource: "concurrent jobs", Used: limit, Limit: limit})
		}
	}
	t.jobsActive.Add(1)
	t.jobsStarted.Add(1)
	started := time.Now()
	return func() {
		t.recordJobDuration(time.Since(started))
		t.jobsActive.Add(-1)
		t.jobsDone.Add(1)
		if t.jobSlots != nil {
			<-t.jobSlots
		}
	}, nil
}

// recordJobDuration folds one finished job into the duration EWMA
// (weight 1/4 on the new sample); the first sample seeds it.
func (t *tenant) recordJobDuration(d time.Duration) {
	for {
		old := t.jobNanosEWMA.Load()
		next := int64(d)
		if old != 0 {
			next = (3*old + int64(d)) / 4
		}
		if t.jobNanosEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfter estimates how long until a job slot frees: the smoothed
// job duration divided across the tier's concurrent slots, rounded up
// to whole seconds, at least 1. It is the Retry-After value for
// concurrent-job 429s — honest enough that a backing-off client
// usually succeeds on its first retry.
func (t *tenant) retryAfter() time.Duration {
	ewma := time.Duration(t.jobNanosEWMA.Load())
	slots := t.tier.MaxConcurrentJobs
	if slots < 1 {
		slots = 1
	}
	est := ewma / time.Duration(slots)
	if est < time.Second {
		return time.Second
	}
	return est.Round(time.Second)
}

// registry owns the tenant set: a tenant is built under its quota
// tier on first request and lives until the server drains. The tier
// catalog is fixed when the server is built, so a tenant's tier never
// changes. All sessions share the server's cache.
type registry struct {
	mu      sync.Mutex
	tenants map[string]*tenant
	build   func(id string) *tenant
	closed  bool
}

func newRegistry(build func(id string) *tenant) *registry {
	return &registry{tenants: make(map[string]*tenant), build: build}
}

// admit returns the tenant for id, creating it on first use, with a
// job slot acquired. After the registry is closed (drain completed) no
// new jobs are admitted.
func (r *registry) admit(id string) (*tenant, func(), error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, nil, fmt.Errorf("server: draining, not admitting tenants")
	}
	t, ok := r.tenants[id]
	if !ok {
		t = r.build(id)
		r.tenants[id] = t
	}
	release, err := t.acquireJob()
	return t, release, err
}

// snapshot returns the tenants sorted by id (for deterministic
// /statsz rendering).
func (r *registry) snapshot() []*tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// close stops admitting new tenants and jobs.
func (r *registry) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}
