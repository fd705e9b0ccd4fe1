package tooleval

import (
	"context"
	"fmt"
	"iter"
	"sync"
)

// Stream runs a heterogeneous batch of experiments and yields one
// (Result, error) pair per spec, in spec order, each delivered as soon
// as its spec completes — the consumer sees result i while specs j > i
// are still simulating, instead of waiting for the whole batch the way
// [Session.Submit] callers do. Every spec starts immediately and all
// of them share the session's worker pool and memoization cache, so
// the sweep's total schedule is the same as Submit's; only delivery is
// incremental. Virtual time keeps each result bit-identical to running
// its spec alone.
//
// Error handling is per spec: a failed or invalid spec yields its
// error (with its position in the batch) and the stream continues with
// the next spec. A cancelled ctx makes remaining specs yield ctx.Err().
// Breaking out of the loop cancels the specs still in flight and waits
// for the cells already simulating to finish — consumers can stop at
// the first error and get Submit's early-exit behavior, or drain
// everything and get [Session.SubmitAll]'s; either way, when the loop
// exits no batch work is still running.
//
// Each yielded Result echoes its spec; on error the payload fields are
// zero. The iterator is single-use: range over the return value once.
func (s *Session) Stream(ctx context.Context, specs []ExperimentSpec) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		// Cancelling on early break is what lets a consumer abandon the
		// batch: specs not yet past the scheduler gate abort with
		// ctx.Err() instead of simulating. The iterator does not return
		// until every producer goroutine has exited — cells already in
		// flight complete (and are charged/cached/reported) first, so
		// after Stream returns the session is quiescent: no event sink
		// fires late and Stats is stable.
		ictx, cancel := context.WithCancel(ctx)
		var wg sync.WaitGroup
		defer func() {
			cancel()
			wg.Wait()
		}()

		type outcome struct {
			res Result
			err error
		}
		// One buffered slot per spec: producers never block on the
		// consumer, so an early break strands no goroutines.
		slots := make([]chan outcome, len(specs))
		for i := range slots {
			slots[i] = make(chan outcome, 1)
		}
		wg.Add(len(specs))
		for i, spec := range specs {
			//toolvet:ignore boundedgo one producer per submitted spec is the streaming contract; each parks on its own buffered slot and cell-level concurrency is bounded by the scheduler's admission gate
			go func(i int, spec ExperimentSpec) {
				defer wg.Done()
				// Every submitted spec gets exactly one SpecStart/SpecDone
				// pair, whatever its fate — invalid and cancelled specs
				// included — so event sinks counting lifecycle pairs
				// against the batch never miscount.
				emit(ictx, SpecStart{Index: i, Spec: spec})
				finish := func(res Result, err error) {
					emit(ictx, SpecDone{Index: i, Spec: spec, Err: err})
					slots[i] <- outcome{res, err}
				}
				if err := spec.validate(); err != nil {
					finish(Result{Spec: spec}, fmt.Errorf("tooleval: spec %d: %w", i, err))
					return
				}
				if err := ictx.Err(); err != nil {
					finish(Result{Spec: spec}, err)
					return
				}
				res, err := s.runSpec(ictx, spec)
				finish(res, err)
			}(i, spec)
		}
		for i := range specs {
			o := <-slots[i]
			if !yield(o.res, o.err) {
				return
			}
		}
	}
}

// SubmitAll runs every spec of the batch to completion and reports
// per-spec outcomes: results[i] and errs[i] describe specs[i], and
// errs[i] is non-nil exactly when that spec failed (including
// validation failures). Unlike [Session.Submit], one bad spec does not
// abort the rest of the sweep — the paper's heterogeneous matrix often
// contains cells that cannot run (a tool without a port, an exhausted
// budget), and SubmitAll returns everything else anyway.
//
// It is Stream drained to the end; both slices always have len(specs).
func (s *Session) SubmitAll(ctx context.Context, specs []ExperimentSpec) (results []Result, errs []error) {
	results = make([]Result, 0, len(specs))
	errs = make([]error, 0, len(specs))
	for res, err := range s.Stream(ctx, specs) {
		results = append(results, res)
		errs = append(errs, err)
	}
	return results, errs
}
