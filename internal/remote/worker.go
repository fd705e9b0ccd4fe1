package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"tooleval/internal/runner"
	"tooleval/internal/sim"
)

// ComputeFunc recomputes one cell from its content key alone. The
// worker daemon passes bench.ComputeCell; tests substitute fakes.
type ComputeFunc func(runner.Key) (runner.CellResult, error)

// Worker is the daemon-side half of remote execution: an HTTP
// handler that computes each requested cell under one slot of a local
// Executor and answers with its value and virtual cost. It memoizes
// nothing: the coordinator's executor already sends each key once and
// keeps the results, durable tier included.
type Worker struct {
	x       runner.Executor
	compute ComputeFunc
	engine  uint64
	now     func() time.Time
	started time.Time
}

// WorkerOption configures a Worker under construction.
type WorkerOption func(*Worker)

// WithWorkerEngine overrides the engine version the worker stamps and
// enforces — a test seam for exercising the version-mismatch refusal
// without building a second binary.
func WithWorkerEngine(v uint64) WorkerOption {
	return func(w *Worker) { w.engine = v }
}

// WithWorkerClock substitutes the uptime clock (tests).
func WithWorkerClock(now func() time.Time) WorkerOption {
	return func(w *Worker) { w.now = now }
}

// NewWorker wraps the local executor and compute dispatcher into a
// worker. The executor only bounds concurrent simulations (Do) and
// reports that bound on /statsz; compute runs once per request.
func NewWorker(x runner.Executor, compute ComputeFunc, opts ...WorkerOption) *Worker {
	w := &Worker{x: x, compute: compute, engine: sim.EngineVersion, now: time.Now}
	for _, opt := range opts {
		opt(w)
	}
	w.started = w.now()
	return w
}

// Handler returns the worker's HTTP surface: POST /v1/cells, GET
// /healthz, GET /statsz.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(CellsPath, w.handleCells)
	mux.HandleFunc(HealthPath, w.handleHealth)
	mux.HandleFunc(StatsPath, w.handleStats)
	return mux
}

func writeJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	json.NewEncoder(rw).Encode(v)
}

func (w *Worker) handleCells(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rw.Header().Set("Allow", http.MethodPost)
		writeJSON(rw, http.StatusMethodNotAllowed, refusal{Error: "POST only"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, 1<<20))
	if err != nil {
		writeJSON(rw, http.StatusBadRequest, refusal{Error: err.Error()})
		return
	}
	var req CellRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(rw, http.StatusBadRequest, refusal{Error: fmt.Sprintf("bad cell request: %v", err)})
		return
	}
	// The version gate. A mismatched coordinator gets a refusal carrying
	// this worker's stamps so the typed error names both sides — never a
	// result computed under the wrong engine.
	if req.Engine != w.engine || req.Protocol != ProtocolVersion {
		writeJSON(rw, http.StatusConflict, refusal{
			Error:    fmt.Sprintf("version mismatch: worker engine=%d protocol=%d, request engine=%d protocol=%d", w.engine, ProtocolVersion, req.Engine, req.Protocol),
			Kind:     kindVersionMismatch,
			Engine:   w.engine,
			Protocol: ProtocolVersion,
		})
		return
	}
	key := req.Key

	// A panicking cell answers 500 instead of killing the daemon's
	// connection goroutine; Do has already released its slot.
	defer func() {
		if p := recover(); p != nil {
			writeJSON(rw, http.StatusInternalServerError, refusal{Error: fmt.Sprintf("cell %s panicked: %v", key, p)})
		}
	}()

	var res runner.CellResult
	err = w.x.Do(r.Context(), func() (err error) {
		res, err = w.compute(key)
		return err
	})
	if err != nil {
		if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
			// The coordinator hung up; nobody reads this response.
			writeJSON(rw, http.StatusServiceUnavailable, refusal{Error: err.Error()})
			return
		}
		// A deterministic cell error is a successful RPC: every worker of
		// this engine version computes the same failure, so the
		// coordinator memoizes it rather than failing over.
		writeJSON(rw, http.StatusOK, CellResponse{Err: err.Error()})
		return
	}
	writeJSON(rw, http.StatusOK, CellResponse{Value: res.Value, VirtualNS: res.Virtual.Nanoseconds()})
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	writeJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
}

// workerStats is the /statsz wire shape.
type workerStats struct {
	EngineVersion   uint64  `json:"engine_version"`
	ProtocolVersion int     `json:"protocol_version"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
	Workers         int     `json:"workers"`
}

func (w *Worker) handleStats(rw http.ResponseWriter, r *http.Request) {
	writeJSON(rw, http.StatusOK, workerStats{
		EngineVersion:   w.engine,
		ProtocolVersion: ProtocolVersion,
		UptimeSeconds:   w.now().Sub(w.started).Seconds(),
		Workers:         w.x.Workers(),
	})
}
