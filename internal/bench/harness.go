package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"tooleval/internal/mpt"
	"tooleval/internal/mpt/tools"
	"tooleval/internal/platform"
	"tooleval/internal/runner"
)

// Harness is one evaluation session's benchmark engine: an execution
// backend (the parallelism bound plus memoization cache), a tool
// registry, and the session's resource budgets. Every table/figure
// regeneration and every micro-benchmark is a Harness method, so
// concurrent harnesses are fully isolated — no shared mutable state
// exists anywhere in this package.
//
// All methods take a context first; cancellation and deadlines are
// observed between simulation cells (an individual cell always runs to
// completion — it is milliseconds of virtual-time simulation).
type Harness struct {
	x      runner.Executor
	custom map[string]mpt.Factory
	remote func(context.Context, runner.Key) (runner.CellResult, error)
	hooks  Hooks
	budget *budget // nil when the session is unlimited
}

// Hooks receives the harness's notifications: one PhaseStart/PhaseDone
// pair per table/figure regeneration (the Exp* ids, plus "report" for
// the full multi-level evaluation), and one Cell per resolved
// simulation cell. Phases nest — Table4 reports its own phase and the
// Table 3 / Figure 2-4 phases it regenerates inside. Callbacks run on
// whichever goroutine drives the work and must be safe for concurrent
// use; nil fields are skipped. ctx is the context of the call being
// reported, so request-scoped carriers survive into the callback; hooks
// must not retain it.
type Hooks struct {
	PhaseStart func(ctx context.Context, id string)
	PhaseDone  func(ctx context.Context, id string, err error)
	// Cell reports one cell resolved by Harness.cell. cached is true
	// when the cell was not computed by this call — a memory or tier
	// hit, or a wait on another call's computation. A call refused by a
	// quota budget is reported with cached false and its *QuotaError. A
	// call that ended with its own context error before computing
	// resolved nothing and is not reported.
	Cell func(ctx context.Context, key runner.Key, cached bool, err error)
}

// NewHarness returns a Harness scheduling through x under the budgets
// lim (the zero Limits for none) and reporting to hooks. Tool names
// resolve from the given custom factories (nil for none) ahead of the
// built-in registry (p4, pvm, express). Custom tools are considered
// ported to every platform: they are hypothetical designs under
// evaluation, not 1995 artifacts with a fixed port matrix.
//
// A non-nil remote computes built-in-tool cells on a cache miss — a
// remote worker fleet's compute step — instead of in this process.
// Custom-tool cells still compute here: their factories exist only in
// this registry.
func NewHarness(x runner.Executor, custom map[string]mpt.Factory, remote func(context.Context, runner.Key) (runner.CellResult, error), hooks Hooks, lim Limits) *Harness {
	if x == nil {
		panic("bench: NewHarness(nil executor)")
	}
	return &Harness{x: x, custom: custom, remote: remote, hooks: hooks, budget: newBudget(lim, x.Workers())}
}

// Executor exposes the harness's execution backend (for stats and its
// cache).
func (h *Harness) Executor() runner.Executor { return h.x }

// phaseStart reports a table/figure regeneration beginning.
func (h *Harness) phaseStart(ctx context.Context, id string) {
	if h.hooks.PhaseStart != nil {
		h.hooks.PhaseStart(ctx, id)
	}
}

// phaseDone reports a regeneration finishing; defer it with a pointer
// to the method's named error so the outcome travels with the event.
func (h *Harness) phaseDone(ctx context.Context, id string, errp *error) {
	if h.hooks.PhaseDone != nil {
		h.hooks.PhaseDone(ctx, id, *errp)
	}
}

// cell resolves one cell through the executor's memoization, charges
// it to the budget when this call computed it, and reports it to the
// Cell hook. The compute step on a miss is chosen from the key alone: a
// custom tool computes here with its registered factory, a harness
// with a remote compute step hands the key to it, and otherwise
// ComputeCell recomputes it from the built-in catalog.
func (h *Harness) cell(ctx context.Context, key runner.Key) (float64, error) {
	if b := h.budget; b != nil {
		if err := b.acquire(ctx); err != nil {
			return 0, err // cancelled while queued: nothing resolved
		}
		defer b.release()
		if err := b.exceeded(); err != nil {
			if h.hooks.Cell != nil {
				h.hooks.Cell(ctx, key, false, err)
			}
			return 0, err
		}
	}
	computed := false
	v, err := h.x.Memo(ctx, key, func() (res runner.CellResult, err error) {
		computed = true
		if b := h.budget; b != nil {
			// Charge on every exit, panics included: a panicking user
			// factory still ran a simulation. res.Virtual is zero on the
			// error and panic paths that never started the engine, so
			// only the cell budget is charged then.
			defer func() { b.charge(res.Virtual) }()
		}
		if factory, ok := h.custom[key.Tool]; ok {
			return computeCell(key, factory)
		}
		if h.remote != nil {
			return h.remote(ctx, key)
		}
		return ComputeCell(key)
	})
	if h.hooks.Cell != nil {
		switch {
		case computed:
			h.hooks.Cell(ctx, key, false, err)
		case err != nil && errors.Is(err, ctx.Err()):
			// Cancelled before this call resolved the cell.
		default:
			h.hooks.Cell(ctx, key, true, err)
		}
	}
	return v, err
}

// Run executes body as a direct (non-memoized) SPMD run under the named
// tool on the platform keyed pfKey. It occupies one slot of the
// executor's parallelism bound, waiting for it under ctx, and charges
// the budget one cell and the run's virtual elapsed time once body has
// run.
func (h *Harness) Run(ctx context.Context, pfKey, tool string, cfg mpt.RunConfig, body mpt.Body) (*mpt.RunResult, error) {
	pf, err := h.RequirePort(pfKey, tool)
	if err != nil {
		return nil, err
	}
	factory, err := h.FactoryFor(tool)
	if err != nil {
		return nil, err
	}
	b := h.budget
	if b != nil {
		if err := b.acquire(ctx); err != nil {
			return nil, err
		}
		defer b.release()
		if err := b.exceeded(); err != nil {
			return nil, err
		}
	}
	var res *mpt.RunResult
	err = h.x.Do(ctx, func() error {
		var err error
		res, err = mpt.Run(pf, factory, cfg, body)
		switch {
		case b == nil:
		case res != nil:
			b.charge(res.Elapsed)
		default:
			b.charge(0)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// FactoryFor resolves a tool name: custom registrations first, then the
// built-in catalog.
func (h *Harness) FactoryFor(name string) (mpt.Factory, error) {
	if f, ok := h.custom[name]; ok {
		return f, nil
	}
	return tools.Factory(name)
}

// ToolNames lists every tool this harness can resolve: the built-ins in
// catalog order, then custom registrations sorted by name.
func (h *Harness) ToolNames() []string {
	names := tools.Names()
	if len(h.custom) == 0 {
		return names
	}
	extra := make([]string, 0, len(h.custom))
	for name := range h.custom {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	return append(names, extra...)
}

// RequirePort resolves the platform keyed pfKey and checks that the
// named tool can run on it: custom tools run everywhere, built-ins
// follow the paper's port matrix (§3.1), and a name that is neither
// has no port anywhere. It is the one port gate: every TPL sweep, APL
// run and session-level direct run goes through it before any cell is
// scheduled or memoized.
func (h *Harness) RequirePort(pfKey, tool string) (platform.Platform, error) {
	pf, err := platform.Get(pfKey)
	if err != nil {
		return pf, err
	}
	if _, ok := h.custom[tool]; !ok && !pf.Supports(tool) {
		return pf, fmt.Errorf("bench: %s has no %s port (paper §3.1)", pf.Name, tool)
	}
	return pf, nil
}
