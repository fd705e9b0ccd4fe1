package bench

import (
	"context"
	"fmt"
	"sort"

	"tooleval/internal/mpt"
	"tooleval/internal/mpt/tools"
	"tooleval/internal/platform"
	"tooleval/internal/runner"
)

// Harness is one evaluation session's benchmark engine: an execution
// backend (the parallelism bound plus memoization cache) and a tool
// registry. Every table/figure regeneration and every micro-benchmark
// is a Harness method, so concurrent harnesses are fully isolated — no
// shared mutable state exists anywhere in this package.
//
// All methods take a context first; cancellation and deadlines are
// observed between simulation cells (an individual cell always runs to
// completion — it is milliseconds of virtual-time simulation).
type Harness struct {
	x      runner.Executor
	custom map[string]mpt.Factory
	remote func(context.Context, runner.Key) (runner.CellResult, error)
	hooks  Hooks
}

// Hooks receives the harness's phase-level notifications: one
// PhaseStart/PhaseDone pair per table/figure regeneration (the Exp*
// ids, plus "report" for the full multi-level evaluation). Phases nest
// — Table4 reports its own phase and the Table 3 / Figure 2-4 phases it
// regenerates inside. Callbacks run on whichever goroutine drives the
// regeneration and must be safe for concurrent use; nil fields are
// skipped. ctx is the context of the regeneration call, so
// request-scoped carriers survive into the callback; hooks must not
// retain it.
type Hooks struct {
	PhaseStart func(ctx context.Context, id string)
	PhaseDone  func(ctx context.Context, id string, err error)
}

// NewHarness returns a Harness scheduling through x and resolving tool
// names from the built-in registry (p4, pvm, express).
func NewHarness(x runner.Executor) *Harness {
	return NewHarnessWithTools(x, nil)
}

// NewHarnessWithTools additionally resolves the given custom factories
// by name, ahead of the built-ins. Custom tools are considered ported
// to every platform: they are hypothetical designs under evaluation,
// not 1995 artifacts with a fixed port matrix.
func NewHarnessWithTools(x runner.Executor, custom map[string]mpt.Factory) *Harness {
	if x == nil {
		panic("bench: NewHarness(nil executor)")
	}
	return &Harness{x: x, custom: custom}
}

// SetHooks installs the phase observation callbacks. Call it before
// submitting work; the harness reads the hooks without locking.
func (h *Harness) SetHooks(hooks Hooks) { h.hooks = hooks }

// SetRemote makes the harness compute built-in-tool cells with fn — a
// remote worker fleet's compute step — instead of in this process.
// Custom-tool cells still compute here: their factories exist only in
// this registry. Call it before submitting work.
func (h *Harness) SetRemote(fn func(context.Context, runner.Key) (runner.CellResult, error)) {
	h.remote = fn
}

// Executor exposes the harness's execution backend (for stats and
// direct Do/Map use by the session layer).
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

// cell resolves one cell through the executor's memoization. The
// compute step on a miss is chosen from the key alone: a custom tool
// computes here with its registered factory, a harness with a remote
// compute step hands the key to it, and otherwise ComputeCell
// recomputes it from the built-in catalog.
func (h *Harness) cell(ctx context.Context, key runner.Key) (float64, error) {
	return h.x.Memo(ctx, key, func() (runner.CellResult, error) {
		if factory, ok := h.custom[key.Tool]; ok {
			return computeCell(key, factory)
		}
		if h.remote != nil {
			return h.remote(ctx, key)
		}
		return ComputeCell(key)
	})
}

// FactoryFor resolves a tool name: custom registrations first, then the
// built-in catalog.
func (h *Harness) FactoryFor(name string) (mpt.Factory, error) {
	if f, ok := h.custom[name]; ok {
		return f, nil
	}
	return tools.Factory(name)
}

// Supports reports whether the named tool can run on pf under this
// harness: custom tools run everywhere, built-ins follow the paper's
// port matrix (§3.1).
func (h *Harness) Supports(pf platform.Platform, name string) bool {
	if _, ok := h.custom[name]; ok {
		return true
	}
	return pf.Supports(name)
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

// requirePort is the shared "tool must be ported" gate for APL runs.
func (h *Harness) requirePort(pf platform.Platform, tool string) error {
	if !h.Supports(pf, tool) {
		return fmt.Errorf("bench: %s has no %s port (paper §3.1)", pf.Name, tool)
	}
	return nil
}
