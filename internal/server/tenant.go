package server

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"tooleval"
)

// tenant is one isolated evaluation principal: its own Session (own
// executor, budgets, stats) over the server's shared cache, plus the
// admission state and counters the handlers maintain.
type tenant struct {
	id       string
	tierName string
	tier     QuotaTier
	sess     *tooleval.Session

	// jobs holds the tenant's running jobs and its newest finished
	// ones, in submission order; the server's mu guards it.
	jobs []*job

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

// errDraining refuses a job once the server has begun to drain.
var errDraining = errors.New("server: draining, not accepting jobs")

// admit returns the tenant for id, building it under its quota tier on
// first use, with a job slot acquired. Once the server drains, no job
// is admitted.
func (s *Server) admit(id string) (*tenant, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil, nil, errDraining
	}
	t, ok := s.tenants[id]
	if !ok {
		t = s.newTenant(id)
		s.tenants[id] = t
	}
	release, err := t.acquireJob()
	return t, release, err
}

// newTenant materializes a tenant under its configured quota tier: an
// isolated Session (own executor and budgets) memoizing into the
// server's shared cache.
func (s *Server) newTenant(id string) *tenant {
	name, tier := s.cfg.tierFor(id)
	opts := []tooleval.Option{tooleval.WithCache(s.cache)}
	if s.cfg.Parallelism > 0 {
		opts = append(opts, tooleval.WithParallelism(s.cfg.Parallelism))
	}
	if tier.MaxCells > 0 {
		opts = append(opts, tooleval.WithMaxCells(int(tier.MaxCells)))
	}
	if tier.MaxVirtualTime > 0 {
		opts = append(opts, tooleval.WithMaxVirtualTime(tier.MaxVirtualTime))
	}
	t := &tenant{id: id, tierName: name, tier: tier, sess: tooleval.NewSession(opts...)}
	if tier.MaxConcurrentJobs > 0 {
		t.jobSlots = make(chan struct{}, tier.MaxConcurrentJobs)
	}
	s.logf("toolbenchd: tenant %q admitted (tier %q)", id, name)
	return t
}

// newJob registers a running job for t under the next id of the
// server-wide sequence, then evicts t's oldest finished jobs beyond
// the retention bound, so a long-lived daemon's memory does not grow
// with its request count. Running jobs are never evicted: their
// handlers still hold them. The job's replay buffer opens with the
// initial "job" status snapshot, so every subscriber, even one
// attaching after the sweep started, sees the job header first.
func (s *Server) newJob(t *tenant, specs []tooleval.ExperimentSpec) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobSeq++
	j := &job{
		id:     fmt.Sprintf("j-%06d", s.jobSeq),
		tenant: t.id,
		specs:  specs,
		state:  jobRunning,
		events: newEventLog(s.cfg.eventBuffer),
	}
	j.events.append("job", marshalEvent("job", j.status()))
	t.jobs = append(t.jobs, j)
	over := len(t.jobs) - s.cfg.MaxJobsRetained
	kept := t.jobs[:0]
	for _, old := range t.jobs {
		if over > 0 && old != j && old.finished() {
			over--
			continue
		}
		kept = append(kept, old)
	}
	clear(t.jobs[len(kept):]) // the backing array must not pin evicted jobs
	t.jobs = kept
	return j
}

// job looks up the job id among tenant's jobs, so another tenant's id
// is not found. A lookup never creates a tenant.
func (s *Server) job(tenant, id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[tenant]; ok {
		for _, j := range t.jobs {
			if j.id == id {
				return j, true
			}
		}
	}
	return nil, false
}
