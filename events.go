package tooleval

import "context"

// Event is the sum of everything a session reports to an
// [EventContext] sink: cell completions ([CellEvent]), experiment-spec
// lifecycle from the batch surface ([SpecStart], [SpecDone]), and
// table/figure phase progress from the regeneration methods
// ([PhaseStart], [PhaseDone]). Switch on the concrete type:
//
//	ctx = tooleval.EventContext(ctx, func(ev tooleval.Event) {
//		switch e := ev.(type) {
//		case tooleval.PhaseStart:
//			log.Printf("%s ...", e.Phase)
//		case tooleval.CellEvent:
//			// one simulation cell resolved
//		}
//	})
//
// Events are emitted from whichever goroutine resolved the work, so a
// sink must be safe for concurrent use. The set of Event types may
// grow; sinks should ignore types they do not recognize.
type Event interface {
	// event marks the closed sum; only types in this package implement
	// it.
	event()
}

func (CellEvent) event()  {}
func (SpecStart) event()  {}
func (SpecDone) event()   {}
func (PhaseStart) event() {}
func (PhaseDone) event()  {}

// SpecStart reports that Submit, SubmitAll, or Stream has admitted the
// spec at Index of its batch. Every submitted spec is announced exactly
// once — including specs that fail validation or arrive after the batch
// was cancelled — so a sink can count Start/Done pairs against the
// batch size.
type SpecStart struct {
	// Index is the spec's position in the submitted batch.
	Index int
	// Spec echoes the experiment.
	Spec ExperimentSpec
}

// SpecDone reports that a batch spec finished; Err is the spec's
// outcome (nil on success; the validation error or ctx error for specs
// that never ran). Every SpecStart is matched by exactly one SpecDone.
// Specs complete in scheduler order, not batch order — the result
// iterators re-establish batch order, the event stream deliberately
// does not.
type SpecDone struct {
	Index int
	Spec  ExperimentSpec
	Err   error
}

// PhaseStart reports a table/figure regeneration beginning. Phase is an
// experiment id ("table3", "table4", "fig2".."fig8") or "report" for
// the full multi-level evaluation. Phases nest: Table4 and the report
// announce themselves and then the Table 3 / Figure 2-4 phases they
// regenerate inside (memoization makes the nested phases nearly free
// when their cells were already simulated).
type PhaseStart struct {
	Phase string
}

// PhaseDone reports a regeneration finishing with its outcome.
type PhaseDone struct {
	Phase string
	Err   error
}

// eventSinkKey carries a per-batch event sink through a Context.
type eventSinkKey struct{}

// EventContext returns a context that routes every [Event] produced by
// session work scheduled under it to fn. It is the one way to receive
// a session's events, and a sink is scoped to one call tree: two
// concurrent [Session.Stream] batches on one session each see exactly
// their own SpecStart/SpecDone pairs, phase events, and cell
// completions, which is what lets a server multiplex many client
// streams over one per-tenant session. Wrapping a context that already
// carries a sink replaces that sink for the calls made under the new
// context.
//
// fn runs on whichever goroutine produced the event and must be safe
// for concurrent use; it must not call back into the Session. Cells
// coalesced onto another batch's in-flight simulation are still
// reported to this batch's sink (Cached true).
func EventContext(ctx context.Context, fn func(Event)) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, eventSinkKey{}, fn)
}

// sinkFrom extracts the per-batch sink, if ctx carries one.
func sinkFrom(ctx context.Context) func(Event) {
	if ctx == nil {
		return nil
	}
	fn, _ := ctx.Value(eventSinkKey{}).(func(Event))
	return fn
}

// emit passes ev to the sink riding ctx, if any. Callers on a per-cell
// path look the sink up first instead, so that no event is built when
// nobody listens (see sessionHooks).
func emit(ctx context.Context, ev Event) {
	if fn := sinkFrom(ctx); fn != nil {
		fn(ev)
	}
}
