package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tooleval"
	"tooleval/internal/sim"
	"tooleval/internal/store"
)

// maxRequestBody bounds POST bodies; a batch of specs is small, and an
// unbounded decode is a free memory DoS.
const maxRequestBody = 1 << 20

// tenantID resolves the requesting tenant: the X-Tenant header, or the
// ?tenant= query parameter (EventSource clients cannot set headers),
// defaulting to "default".
func tenantID(r *http.Request) (string, error) {
	id := r.Header.Get("X-Tenant")
	if id == "" {
		id = r.URL.Query().Get("tenant")
	}
	if id == "" {
		id = "default"
	}
	if !validTenantID(id) {
		return "", fmt.Errorf("server: invalid tenant id %q", id)
	}
	return id, nil
}

// writeError emits the errorWire envelope; quota refusals carry their
// typed breakdown so clients need not parse message strings.
func writeError(w http.ResponseWriter, code int, err error) {
	ew := errorWire{Error: err.Error()}
	var qe *tooleval.QuotaError
	if errors.As(err, &qe) {
		ew.Quota = &quotaWire{Resource: qe.Resource, Used: qe.Used, Limit: qe.Limit}
	}
	writeJSON(w, code, ew)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleSubmit admits a batch: POST /v1/jobs. With "Accept:
// text/event-stream" the response is the live SSE feed of the sweep
// (job, spec_start, cell, phase_start, phase_done, spec_done, job_done
// events); otherwise the handler blocks until the batch finishes and
// responds with the report JSON directly. Either way the job is
// registered, the Location header names it (/v1/jobs/{id}), and its
// status/report remain fetchable afterwards.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("server: draining, not accepting jobs"))
		return
	}
	id, err := tenantID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req jobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: decoding job request: %w", err))
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("server: job has no specs"))
		return
	}
	if len(req.Specs) > s.cfg.MaxSpecsPerJob {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("server: %d specs exceeds per-job limit %d", len(req.Specs), s.cfg.MaxSpecsPerJob))
		return
	}
	tn, release, err := s.tenants.admit(id)
	if err != nil {
		if tn == nil {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		// Concurrent-job refusal: tell the client when a slot should
		// free, derived from the tenant's smoothed job duration.
		w.Header().Set("Retry-After", strconv.FormatInt(int64(tn.retryAfter().Seconds()), 10))
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	defer release()
	s.activeJobs.Add(1)
	defer s.activeJobs.Done()

	j := s.jobs.create(id, req.Specs)
	// Name the job before any header is written, so every client of an
	// accepted job learns its id, whatever the stream later drops.
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	streaming := wantsSSE(r)

	// The job's context: the blocking path dies with the client
	// connection, while a streaming submission survives disconnects for
	// cfg.ResumeWindow (the watchdog in job.detach cancels it if no
	// subscriber reattaches). Both die with the drain deadline.
	var ctx context.Context
	var cancel context.CancelFunc
	if streaming {
		ctx, cancel = context.WithCancel(context.Background())
		j.makeResumable(cancel, s.cfg.ResumeWindow)
	} else {
		ctx, cancel = context.WithCancel(r.Context())
	}
	defer cancel()
	stopAfter := context.AfterFunc(s.hardCtx, cancel)
	defer stopAfter()

	var forwarded chan struct{}
	if streaming {
		stream, err := newSSE(w)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			cancel()
			j.complete(nil, nil, true)
			return
		}
		forwarded = make(chan struct{})
		go func() {
			defer close(forwarded)
			forward(r.Context(), stream, j, 0)
		}()
	}

	// The per-job sink: every event in this batch's call tree folds
	// into the job counters, the tenant counters, and the job's replay
	// buffer (which live streams drain). Runs on the session's worker
	// goroutines.
	ctx = tooleval.EventContext(ctx, func(ev tooleval.Event) {
		j.publish(ev)
		switch e := ev.(type) {
		case tooleval.CellEvent:
			tn.cells.Add(1)
			if e.Cached {
				tn.cellsCached.Add(1)
			}
		case tooleval.SpecDone:
			tn.specsDone.Add(1)
			if e.Err != nil {
				tn.specsFailed.Add(1)
			}
		}
	})

	results, errs := tn.sess.SubmitAll(ctx, req.Specs)
	j.complete(results, errs, ctx.Err() != nil)

	if streaming {
		<-forwarded // job_done flushed, or the client went away
		return
	}

	// Blocking JSON path: the report is the response body. A quota
	// refusal anywhere in the batch makes the whole response a 429 —
	// the batch exceeded the tenant's tier — while ordinary spec
	// failures stay 200 with per-spec error strings.
	report, reportErr := j.reportBytes()
	if reportErr != nil {
		writeError(w, http.StatusInternalServerError, reportErr)
		return
	}
	code := http.StatusOK
	for _, err := range errs {
		var qe *tooleval.QuotaError
		if errors.As(err, &qe) {
			code = http.StatusTooManyRequests
			break
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(report)
}

func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// gapWire is the "gap" SSE event: the subscriber resumed (or fell)
// past the replay buffer and missed Missed events. The stream is still
// live from the current position; a client needing the lost ground
// fetches the final report instead.
type gapWire struct {
	Missed int64 `json:"missed"`
}

// forward drains j's replay buffer onto stream, starting after event
// id after, until the job's log closes (job_done flushed), the client
// disconnects, or ctx ends. Every frame carries its log id, so the
// client can resume from wherever the stream died.
func forward(ctx context.Context, stream *sseStream, j *job, after int64) {
	j.attach()
	defer j.detach()
	for {
		events, missed, done, updated := j.events.since(after)
		if missed > 0 {
			stream.send("gap", gapWire{Missed: missed})
			after += missed
		}
		for _, e := range events {
			stream.sendRaw(e.id, e.name, e.data)
			after = e.id
		}
		if stream.failed() {
			return
		}
		if len(events) > 0 || missed > 0 {
			// Made progress: more may have arrived (or the log closed)
			// while draining, so re-check before sleeping.
			continue
		}
		if done {
			return
		}
		select {
		case <-updated:
		case <-ctx.Done():
			return
		}
	}
}

// handleJobEvents serves GET /v1/jobs/{id}/events: the job's SSE feed,
// resumable. A fresh subscriber replays the whole retained buffer; one
// reconnecting sends Last-Event-ID (or ?after=N) and replays only the
// gap, then continues live. Attaching also disarms the disconnect
// watchdog, so a dropped POST stream that reconnects here keeps its
// sweep alive.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	after := int64(0)
	arg := r.Header.Get("Last-Event-ID")
	if arg == "" {
		arg = r.URL.Query().Get("after")
	}
	if arg != "" {
		n, err := strconv.ParseInt(arg, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad Last-Event-ID %q", arg))
			return
		}
		after = n
	}
	stream, err := newSSE(w)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	forward(r.Context(), stream, j, after)
}

// handleJobStatus serves GET /v1/jobs/{id}: live progress counters.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobReport serves GET /v1/jobs/{id}/report: the finished batch
// report (409 while the job still runs). ?spec=N narrows to one spec's
// entry.
func (s *Server) handleJobReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	report, err := j.reportBytes()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if report == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("server: job %s still running", j.id))
		return
	}
	if specArg := r.URL.Query().Get("spec"); specArg != "" {
		n, err := strconv.Atoi(specArg)
		if err != nil || n < 0 || n >= len(j.specs) {
			writeError(w, http.StatusBadRequest, fmt.Errorf("server: job %s has no spec %q", j.id, specArg))
			return
		}
		var full reportWire
		if err := json.Unmarshal(report, &full); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, full.Specs[n])
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(report)
}

// lookupJob resolves {id} under the requesting tenant's namespace,
// writing the error response itself on failure.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	tenant, err := tenantID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	id := r.PathValue("id")
	j, ok := s.jobs.get(tenant, id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("server: no job %q", id))
		return nil, false
	}
	return j, true
}

// healthWire is the GET /healthz body.
type healthWire struct {
	Status string `json:"status"` // "ok" | "degraded" | "draining"
	// StoreCircuit is the durable store's write-path breaker state
	// (closed | open | half-open); absent without a store. The store
	// recovers on its own — an open circuit probes the disk under
	// backoff and re-closes when a probe succeeds — so "degraded" is a
	// condition to watch, not to restart over.
	StoreCircuit string `json:"store_circuit,omitempty"`
	StoreError   string `json:"store_error,omitempty"`
}

// healthFor maps server state to the health response. Draining is a
// 503 so load balancers stop routing here; a degraded durable store
// (persistence paused while the circuit is open, evaluation still
// correct from the in-memory tier) stays 200 but flips status so
// operators notice.
func healthFor(draining bool, sh *store.Health) (int, healthWire) {
	if draining {
		return http.StatusServiceUnavailable, healthWire{Status: "draining"}
	}
	h := healthWire{Status: "ok"}
	if sh != nil {
		h.StoreCircuit = string(sh.State)
		if sh.State != store.CircuitClosed {
			h.Status = "degraded"
			h.StoreError = errString(sh.Err)
		}
	}
	return http.StatusOK, h
}

// handleHealthz reports liveness; see healthFor for the state mapping.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var sh *store.Health
	if st := s.resultStore(); st != nil {
		h := st.Health()
		sh = &h
	}
	code, h := healthFor(s.draining.Load(), sh)
	writeJSON(w, code, h)
}

// statszWire is the GET /statsz body.
type statszWire struct {
	EngineVersion uint64                     `json:"engine_version"`
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Draining      bool                       `json:"draining"`
	Cache         cacheStatsWire             `json:"cache"`
	Store         *storeStatsWire            `json:"store,omitempty"`
	Tenants       map[string]tenantStatsWire `json:"tenants"`
}

type cacheStatsWire struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Cells  int   `json:"cells"`
}

type storeStatsWire struct {
	Cells   int    `json:"cells"`
	Circuit string `json:"circuit"` // write-path breaker state
	Trips   int64  `json:"trips"`   // times the breaker opened
	Probes  int64  `json:"probes"`  // half-open probe writes admitted
	Dropped int64  `json:"dropped"` // fills skipped while open
	Error   string `json:"error,omitempty"`
}

type tenantStatsWire struct {
	Tier        string `json:"tier"`
	JobsActive  int64  `json:"jobs_active"`
	JobsStarted int64  `json:"jobs_started"`
	JobsDone    int64  `json:"jobs_done"`
	JobsRefused int64  `json:"jobs_refused"`
	SpecsDone   int64  `json:"specs_done"`
	SpecsFailed int64  `json:"specs_failed"`
	Cells       int64  `json:"cells"`
	CellsCached int64  `json:"cells_cached"`
}

// handleStatsz serves operational counters: the shared cache, the
// durable store, and every tenant's admission and sweep totals.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()
	out := statszWire{
		EngineVersion: sim.EngineVersion,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Draining:      s.draining.Load(),
		Cache:         cacheStatsWire{Hits: cs.Hits, Misses: cs.Misses, Cells: s.cache.Len()},
		Tenants:       make(map[string]tenantStatsWire),
	}
	if st := s.resultStore(); st != nil {
		sh := st.Health()
		out.Store = &storeStatsWire{
			Cells:   st.Len(),
			Circuit: string(sh.State),
			Trips:   sh.Trips,
			Probes:  sh.Probes,
			Dropped: sh.Dropped,
			Error:   errString(sh.Err),
		}
	}
	for _, t := range s.tenants.snapshot() {
		out.Tenants[t.id] = tenantStatsWire{
			Tier:        t.tier.Name,
			JobsActive:  t.jobsActive.Load(),
			JobsStarted: t.jobsStarted.Load(),
			JobsDone:    t.jobsDone.Load(),
			JobsRefused: t.jobsRefused.Load(),
			SpecsDone:   t.specsDone.Load(),
			SpecsFailed: t.specsFailed.Load(),
			Cells:       t.cells.Load(),
			CellsCached: t.cellsCached.Load(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}
