package server

import (
	"context"
	"maps"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tooleval"
)

// Server is the toolbenchd state: the shared cache, the tenant
// registry, the job index, and the drain machinery. Build one with New,
// optionally attach a durable tier with Cache().SetTier, and expose it
// with Handler (tests) or run it on the caller's listener with Serve.
type Server struct {
	cfg   Config
	cache *tooleval.Cache
	mux   *http.ServeMux

	tenants *registry
	jobs    *jobStore
	started time.Time // for /statsz uptime

	// draining refuses new jobs and tenants while in-flight sweeps
	// finish; hardCtx is cancelled when the drain deadline passes, so
	// the sweeps still running abort instead of holding the process.
	draining   atomic.Bool
	hardCtx    context.Context
	hardCancel context.CancelFunc
	activeJobs sync.WaitGroup
}

// New builds a Server from cfg (normalized in place: defaults filled,
// tier wiring validated) with an empty, memory-only shared cache.
func New(cfg Config) (*Server, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// The server's own copy of the tier catalog: later writes to the
	// caller's maps cannot reach a running server.
	cfg.Tiers, cfg.TenantTiers = maps.Clone(cfg.Tiers), maps.Clone(cfg.TenantTiers)
	cache := tooleval.NewCache()
	cache.SetCapacity(cfg.CacheCapacity)
	s := &Server{cfg: cfg, cache: cache, started: time.Now()}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.tenants = newRegistry(s.buildTenant)
	s.jobs = newJobStore(cfg.MaxJobsRetained, cfg.EventBuffer)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleJobReport)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	return s, nil
}

// buildTenant materializes a tenant under its configured quota tier:
// an isolated Session (own executor and budgets) memoizing into the
// server's shared cache.
func (s *Server) buildTenant(id string) *tenant {
	tier := s.cfg.tierFor(id)
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
	t := &tenant{id: id, tier: tier, sess: tooleval.NewSession(opts...)}
	if tier.MaxConcurrentJobs > 0 {
		t.jobSlots = make(chan struct{}, tier.MaxConcurrentJobs)
	}
	s.logf("toolbenchd: tenant %q admitted (tier %q)", id, tier.Name)
	return t
}

// Handler returns the server's HTTP surface (for httptest and for
// embedding under an outer mux).
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the shared cell cache: attach a durable tier with its
// SetTier before serving, and read its stats.
func (s *Server) Cache() *tooleval.Cache { return s.cache }

// resultStore is the durable store attached behind the shared cache,
// nil when its tier is absent or of another kind. /healthz and /statsz
// report it.
func (s *Server) resultStore() *tooleval.ResultStore {
	st, _ := s.cache.Tier().(*tooleval.ResultStore)
	return st
}

// Serve accepts connections on ln until ctx is cancelled (the SIGTERM
// path in cmd/toolbenchd), then drains gracefully: stop admitting
// jobs, let in-flight sweeps and their streams finish, and — if the
// drain deadline passes first — cancel the stragglers' contexts and
// force-close their connections. After the drain no sweep is running,
// so the caller can close the tier it attached; the error is nil on a
// clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// The listener failed out from under us.
		s.Close()
		return err
	case <-ctx.Done():
	}
	return s.drain(srv)
}

// drain is the SIGTERM half of Serve, deadline-bounded by
// cfg.DrainTimeout.
func (s *Server) drain(srv *http.Server) error {
	s.draining.Store(true)
	s.logf("toolbenchd: draining (timeout %v)", s.cfg.DrainTimeout)
	shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(shCtx)
	if err != nil {
		// Deadline passed with sweeps still running: abort their
		// contexts — cells in flight finish, nothing half-done is
		// cached — and force-close the connections.
		s.logf("toolbenchd: drain deadline passed, aborting in-flight jobs")
		s.hardCancel()
		srv.Close()
	} else {
		s.logf("toolbenchd: in-flight jobs finished")
	}
	s.activeJobs.Wait()
	s.Close()
	return err
}

// Close stops admitting jobs and tenants, cancels every sweep still
// running, and returns nil. Idempotent and safe to call concurrently
// with itself. Callers still streaming jobs should drain first (Serve
// does).
func (s *Server) Close() error {
	s.draining.Store(true)
	s.hardCancel()
	s.tenants.close()
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
