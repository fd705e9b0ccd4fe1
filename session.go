package tooleval

import (
	"context"
	"fmt"

	"tooleval/internal/bench"
	"tooleval/internal/core"
	"tooleval/internal/mpt"
	"tooleval/internal/remote"
	"tooleval/internal/runner"
)

// Cache is a shareable store of memoized simulation cells. Every cell
// is a pure function of its content key (platform, tool, benchmark,
// procs, size/scale), so two sessions pointing WithCache at the same
// Cache pool their results: a cell simulated by one is a cache hit for
// the other. The hit/miss counters travel with the cache.
//
// A cache grows without bound by default. SetCapacity(n) bounds it to
// exactly n cells with least-recently-used eviction — call it before
// [WithCache], or later on [Session.Cache]; evicted cells re-simulate
// on their next request.
//
// Sessions sharing a Cache must agree on what every tool name means:
// two sessions registering different factories under the same custom
// name would memoize conflicting results under equal keys.
type Cache = runner.Cache

// NewCache returns an empty cell cache for use with WithCache.
func NewCache() *Cache { return runner.NewCache() }

// Cell identifies one memoized simulation cell — one entry of the
// paper's evaluation matrix.
type Cell = runner.Key

// CellEvent reports one resolved simulation cell to a [WithEvents]
// sink. Cached is true when the cell was served from the session's
// memoization cache (or coalesced onto an in-flight computation)
// instead of being simulated by this call.
type CellEvent struct {
	Cell   Cell
	Cached bool
	Err    error
}

// Session is one self-contained evaluation instance: it owns its
// execution backend (an [Executor] — by default a worker pool with a
// parallelism bound and a memoization cache), its statistics, its tool
// registry, and its event sinks. Sessions are safe for concurrent use,
// and distinct sessions are fully isolated from one another — two
// tenants in one process can evaluate concurrently with different
// parallelism, budgets, and backends without sharing or clobbering any
// state.
//
// All methods take a Context first. Cancellation and deadlines are
// observed between simulation cells: a sweep aborts promptly with
// ctx.Err(), while the cell in flight (milliseconds of virtual-time
// simulation) always runs to completion.
//
// Because virtual time makes every cell deterministic, a Session's
// results are bit-identical at any parallelism.
type Session struct {
	h           *bench.Harness
	parallelism int
	sinks       []func(Event)
	remote      *remote.Remote // worker compute step (WithRemoteExecutor), nil otherwise
}

type sessionConfig struct {
	parallelism int
	cache       *Cache
	tools       map[string]Factory
	sinks       []func(Event)
	executor    Executor
	limits      runner.Limits
	workers     []string // worker daemon addresses (WithRemoteExecutor)
}

// Option configures a Session under construction.
type Option func(*sessionConfig)

// WithParallelism bounds how many independent simulations the session
// runs at once (n < 1 selects GOMAXPROCS, the default). n == 1
// reproduces the strictly serial sweep order; results are identical at
// any value.
func WithParallelism(n int) Option {
	return func(c *sessionConfig) { c.parallelism = n }
}

// WithCache makes the session memoize into the given shared cache
// instead of a fresh private one. See Cache for the sharing contract.
func WithCache(cache *Cache) Option {
	return func(c *sessionConfig) {
		if cache != nil {
			c.cache = cache
		}
	}
}

// WithTool registers a user-supplied tool implementation under name,
// resolvable by every Session method that takes a tool name — the
// methodology's second objective, serving as "a unified platform for
// PDC tool developers". Custom tools are considered ported to every
// platform (they are designs under evaluation, not 1995 artifacts with
// a fixed port matrix) and shadow a built-in of the same name.
func WithTool(name string, factory Factory) Option {
	return func(c *sessionConfig) {
		if c.tools == nil {
			c.tools = make(map[string]Factory)
		}
		c.tools[name] = factory
	}
}

// NewSession builds an isolated evaluation session. With no options it
// uses GOMAXPROCS parallelism, a fresh private unbounded cache, the
// built-in tool registry (p4, pvm, express), no budgets, and no event
// sinks.
//
// Construction follows one path whatever the options: pick the local
// executor ([WithExecutor], else the built-in pool) and wrap it in the
// quota budgets. Every cell memoizes through that one executor; only
// the compute step on a miss varies — [WithRemoteExecutor] sends
// built-in-tool cells to the workers, while [WithTool] cells always
// compute in this process. A durable tier rides on the cache, not the
// session: attach a [ResultStore] with [Cache.SetTier] before passing
// the cache, and close the store when done. A session owns no
// resource, so there is nothing to close.
//
// The options compose; NewSession panics only on a configuration it
// cannot honor, each documented on its option:
//   - [WithCache] alongside [WithExecutor];
//   - a [WithRemoteExecutor] address list holding a blank or
//     duplicate address.
func NewSession(opts ...Option) *Session {
	var cfg sessionConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	x := cfg.executor
	if x == nil {
		x = runner.New(cfg.parallelism, runner.WithCache(cfg.cache))
	} else if cfg.cache != nil {
		// The executor was built by the caller, cache included: a second
		// cache cannot be installed after the fact, so combining the two
		// options is a configuration bug, not a preference to drop.
		panic("tooleval: WithCache conflicts with WithExecutor — the executor owns its cache; build the executor over the shared cache instead")
	}
	x = runner.NewQuota(x, cfg.limits)
	var rem *remote.Remote
	if len(cfg.workers) > 0 {
		var err error
		rem, err = remote.New(cfg.workers)
		if err != nil {
			panic(fmt.Sprintf("tooleval: WithRemoteExecutor: %v", err))
		}
	}
	var custom map[string]mpt.Factory
	if len(cfg.tools) > 0 {
		custom = make(map[string]mpt.Factory, len(cfg.tools))
		for name, factory := range cfg.tools {
			custom[name] = factory
		}
	}
	s := &Session{
		h:           bench.NewHarness(x, custom),
		parallelism: x.Workers(),
		sinks:       cfg.sinks,
		remote:      rem,
	}
	if rem != nil {
		// The workers only ever see cell keys: memoization, the durable
		// tier, observers and quota charging (with the virtual cost the
		// worker reports) all stay in x, on the coordinator.
		s.h.SetRemote(rem.Compute)
	}
	// The observer and hooks are always installed: even with no
	// WithEvents sinks, a caller may attach a per-batch sink to a
	// context with [EventContext], and those events ride the ctx the
	// work was scheduled under. emit is a no-op when neither exists.
	x.Observe(func(ctx context.Context, key runner.Key, cached bool, err error) {
		s.emit(ctx, CellEvent{Cell: key, Cached: cached, Err: err})
	})
	s.h.SetHooks(bench.Hooks{
		PhaseStart: func(ctx context.Context, id string) { s.emit(ctx, PhaseStart{Phase: id}) },
		PhaseDone:  func(ctx context.Context, id string, err error) { s.emit(ctx, PhaseDone{Phase: id, Err: err}) },
	})
	return s
}

// emit fans an event out to every session sink, plus the per-batch
// sink riding ctx (see [EventContext]), if any.
func (s *Session) emit(ctx context.Context, ev Event) {
	for _, fn := range s.sinks {
		fn(ev)
	}
	if fn := sinkFrom(ctx); fn != nil {
		fn(ev)
	}
}

// Parallelism reports the session's simulation concurrency bound.
func (s *Session) Parallelism() int { return s.parallelism }

// Executor returns the session's execution backend: the quota-wrapped
// view of the built-in pool or of the [WithExecutor] replacement —
// what Stats and every session method schedule through.
func (s *Session) Executor() Executor { return s.h.Executor() }

// Stats reports the session's memoization counters: cells served from
// cache (hits) and cells actually simulated (misses). With WithCache
// the counters are those of the shared cache.
func (s *Session) Stats() (hits, misses int64) {
	st := s.h.Executor().Stats()
	return st.Hits, st.Misses
}

// Cache returns the session's memoization cache (shared or private),
// for handing to another session via WithCache.
func (s *Session) Cache() *Cache { return s.h.Executor().Cache() }

// NodeStats reports the per-worker coordinator counters of a
// [WithRemoteExecutor] session — RPCs sent, completed, retried onto
// this node after another failed, breaker ejections, and the current
// admission state — in configuration order. Sessions without workers
// return nil.
func (s *Session) NodeStats() []RemoteNodeStats {
	if s.remote == nil {
		return nil
	}
	return s.remote.NodeStats()
}

// Tools lists every tool name this session resolves: the built-ins,
// then custom registrations in sorted order.
func (s *Session) Tools() []string { return s.h.ToolNames() }

// Run executes body as an SPMD program under the named tool (built-in
// or registered via WithTool) on the named platform. All timing in the
// result is deterministic virtual time. The run occupies one slot of
// the session's parallelism bound; ctx is observed while waiting for a
// slot.
func (s *Session) Run(ctx context.Context, platformKey, tool string, cfg RunConfig, body func(*Ctx) (any, error)) (*RunResult, error) {
	pf, err := s.h.RequirePort(platformKey, tool)
	if err != nil {
		return nil, err
	}
	factory, err := s.h.FactoryFor(tool)
	if err != nil {
		return nil, err
	}
	var res *RunResult
	err = s.h.Executor().Do(ctx, func() error {
		var err error
		res, err = mpt.Run(pf, factory, cfg, body)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// PingPong measures the send/receive round trip (Table 3's benchmark)
// and returns milliseconds per message size.
func (s *Session) PingPong(ctx context.Context, platformKey, tool string, sizes []int) ([]float64, error) {
	return s.h.PingPong(ctx, platformKey, tool, sizes)
}

// Broadcast measures the collective broadcast (Figure 2's benchmark).
func (s *Session) Broadcast(ctx context.Context, platformKey, tool string, procs int, sizes []int) ([]float64, error) {
	return s.h.Broadcast(ctx, platformKey, tool, procs, sizes)
}

// Ring measures the ring/loop benchmark (Figure 3).
func (s *Session) Ring(ctx context.Context, platformKey, tool string, procs int, sizes []int) ([]float64, error) {
	return s.h.Ring(ctx, platformKey, tool, procs, sizes)
}

// GlobalSum measures the integer-vector global summation (Figure 4).
func (s *Session) GlobalSum(ctx context.Context, platformKey, tool string, procs int, vectorLens []int) ([]float64, error) {
	return s.h.GlobalSum(ctx, platformKey, tool, procs, vectorLens)
}

// RunApp executes one of the four applications the paper benchmarks
// ("jpeg", "fft2d", "montecarlo" or "psrs"; no other Table 2 member is
// runnable) over a processor sweep and returns its execution-time curve.
// scale shrinks the paper-scale workload (1.0 reproduces the paper). Processor counts the application cannot use at
// that scale are skipped; a sweep left with none is an error.
func (s *Session) RunApp(ctx context.Context, platformKey, tool, app string, procsList []int, scale float64) (AppMeasurement, error) {
	series, err := s.h.RunAPL(ctx, platformKey, tool, app, procsList, scale)
	if err != nil {
		return AppMeasurement{}, err
	}
	return AppMeasurement{Platform: series.Platform, App: series.App, Tool: series.Tool, Procs: series.Procs, Seconds: series.Seconds}, nil
}

// Evaluate runs the complete multi-level methodology: it regenerates
// the TPL measurements (Table 3 and Figures 2-4), the APL measurements
// on the SUN/Ethernet platform at the given workload scale, combines
// them with the paper's ADL matrix, and returns the weighted
// evaluation. Cells already computed in this session — by an earlier
// Evaluate or by the benchmark methods — are served from the
// memoization cache instead of re-simulated.
func (s *Session) Evaluate(ctx context.Context, profile WeightProfile, scale float64) (*Evaluation, error) {
	return s.h.Evaluate(ctx, profile, scale)
}

// Table3 regenerates the snd/recv timing table over the three SUN
// networks.
func (s *Session) Table3(ctx context.Context) (*Table3Result, error) {
	return s.h.Table3(ctx)
}

// Fig2 regenerates the broadcast figure at the given rank count (the
// paper uses 4).
func (s *Session) Fig2(ctx context.Context, procs int) (*FigureResult, error) {
	return s.h.Fig2(ctx, procs)
}

// Fig3 regenerates the ring figure.
func (s *Session) Fig3(ctx context.Context, procs int) (*FigureResult, error) {
	return s.h.Fig3(ctx, procs)
}

// Fig4 regenerates the global summation figure.
func (s *Session) Fig4(ctx context.Context, procs int) (*FigureResult, error) {
	return s.h.Fig4(ctx, procs)
}

// Table4 regenerates the primitive-ranking table from Table 3 and
// Figures 2-4 (all four fan out concurrently within the session's
// parallelism bound).
func (s *Session) Table4(ctx context.Context, procs int) ([]PrimitiveRanking, error) {
	return s.h.Table4(ctx, procs)
}

// APLFigure regenerates one of Figures 5-8 ("fig5".."fig8"): the four
// suite applications on that figure's platform across its tool set and
// processor sweep.
func (s *Session) APLFigure(ctx context.Context, figID string, scale float64) (*FigureResult, []AppMeasurement, error) {
	return s.h.APLFigure(ctx, figID, scale)
}

// TraceRun executes a small ping-pong under the named tool with the
// engine execution trace enabled and returns the formatted event log
// (the ADL debugging-support criterion). The run occupies one slot of
// the session's parallelism bound.
func (s *Session) TraceRun(ctx context.Context, platformKey, tool string, size, maxEvents int) ([]string, error) {
	pf, err := s.h.RequirePort(platformKey, tool)
	if err != nil {
		return nil, err
	}
	var events []string
	err = s.h.Executor().Do(ctx, func() error {
		var err error
		events, err = s.h.TraceRun(pf, tool, size, maxEvents)
		return err
	})
	return events, err
}

// ProfileByName looks up a built-in weight profile ("end-user",
// "developer", "system-manager").
func ProfileByName(name string) (WeightProfile, error) {
	for _, p := range core.Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return WeightProfile{}, fmt.Errorf("tooleval: unknown profile %q", name)
}
