package server

import (
	"context"
	"sync"
	"time"

	"tooleval"
)

// Job lifecycle states as reported by GET /v1/jobs/{id}.
const (
	jobRunning   = "running"
	jobDone      = "done"      // every spec resolved; report available
	jobCancelled = "cancelled" // client disconnect or drain deadline aborted it
)

// job is one submitted batch: its specs, live event counters, the
// replay buffer its streams drain, and — once finished — its outcome
// and marshalled report.
type job struct {
	id     string
	tenant string
	specs  []tooleval.ExperimentSpec
	events *eventLog

	mu         sync.Mutex
	state      string
	specStarts int
	specDones  int
	cellEvents int
	failed     int
	report     []byte
	reportErr  error

	// Resume watchdog (streaming submissions only): the sweep's context
	// is cancelled not when the client disconnects but when no
	// subscriber has been attached for resumeWindow — the grace period
	// in which a dropped stream may reconnect with Last-Event-ID.
	cancel       context.CancelFunc // nil: job not resumable (blocking path)
	resumeWindow time.Duration
	subs         int
	watchdog     *time.Timer
}

// makeResumable arms the disconnect watchdog: cancel aborts the sweep
// if every subscriber stays detached for window. Call before the first
// attach.
func (j *job) makeResumable(cancel context.CancelFunc, window time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel = cancel
	j.resumeWindow = window
}

// attach registers one live subscriber, disarming any pending
// disconnect watchdog.
func (j *job) attach() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.subs++
	if j.watchdog != nil {
		j.watchdog.Stop()
		j.watchdog = nil
	}
}

// detach unregisters a subscriber. When the last one leaves a running
// resumable job, the watchdog starts: reconnect within the window or
// the sweep is cancelled (its cells finish; nothing half-done caches).
func (j *job) detach() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.subs--
	if j.subs > 0 || j.state != jobRunning || j.cancel == nil || j.watchdog != nil {
		return
	}
	j.watchdog = time.AfterFunc(j.resumeWindow, j.cancel)
}

// publish folds one session event into the job's counters and appends
// its wire form to the replay buffer. It runs on the session's worker
// goroutines; append never blocks on subscribers.
func (j *job) publish(ev tooleval.Event) {
	j.observe(ev)
	if name, data, ok := eventWire(ev); ok {
		j.events.append(name, marshalEvent(name, data))
	}
}

// observe folds one session event into the job's counters. It is the
// job's EventContext sink body; the SSE encoder runs separately.
func (j *job) observe(ev tooleval.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch e := ev.(type) {
	case tooleval.SpecStart:
		j.specStarts++
	case tooleval.SpecDone:
		j.specDones++
		if e.Err != nil {
			j.failed++
		}
	case tooleval.CellEvent:
		j.cellEvents++
	}
}

// complete records the batch outcome and renders the report.
// cancelled marks a batch whose context died before the sweep
// finished; its report still renders (ctx errors ride the per-spec
// error strings) but the state tells clients not to trust it as the
// sweep's result.
func (j *job) complete(results []tooleval.Result, errs []error, cancelled bool) {
	report, reportErr := MarshalBatchReport(results, errs)
	j.mu.Lock()
	j.report, j.reportErr = report, reportErr
	if cancelled {
		j.state = jobCancelled
	} else {
		j.state = jobDone
	}
	if j.watchdog != nil {
		j.watchdog.Stop()
		j.watchdog = nil
	}
	final := j.statusLocked()
	j.mu.Unlock()
	// The terminal event, then no more: subscribers drain and hang up.
	j.events.append("job_done", marshalEvent("job_done", final))
	j.events.close()
}

// finished reports whether the job has left the running state.
func (j *job) finished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state != jobRunning
}

// reportBytes returns the rendered report — nil while the job still
// runs — and any render error.
func (j *job) reportBytes() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report, j.reportErr
}

// jobStatusWire is the GET /v1/jobs/{id} body.
type jobStatusWire struct {
	Job        string `json:"job"`
	Tenant     string `json:"tenant"`
	State      string `json:"state"`
	Specs      int    `json:"specs"`
	SpecStarts int    `json:"spec_starts"`
	SpecDones  int    `json:"spec_dones"`
	Cells      int    `json:"cells"`
	Failed     int    `json:"failed"`
}

func (j *job) status() jobStatusWire {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *job) statusLocked() jobStatusWire {
	return jobStatusWire{
		Job:        j.id,
		Tenant:     j.tenant,
		State:      j.state,
		Specs:      len(j.specs),
		SpecStarts: j.specStarts,
		SpecDones:  j.specDones,
		Cells:      j.cellEvents,
		Failed:     j.failed,
	}
}
