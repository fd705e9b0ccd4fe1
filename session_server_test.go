package tooleval_test

// Tests for the session seams the toolbenchd server builds on: the
// per-batch EventContext sink, idempotent concurrent-safe Close, and
// the Err accessor surfacing a degraded durable store mid-run.

import (
	"context"
	"sync"
	"testing"

	"tooleval"
)

// sinkRecorder collects events concurrently (sinks fire from worker
// goroutines).
type sinkRecorder struct {
	mu     sync.Mutex
	events []tooleval.Event
}

func (r *sinkRecorder) sink(ev tooleval.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

func (r *sinkRecorder) snapshot() []tooleval.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]tooleval.Event(nil), r.events...)
}

// TestEventContextScopesBatches runs two concurrent batches on one
// session, each with its own EventContext sink, and asserts every
// event lands only at its own batch's sink — the property that lets a
// server multiplex per-client SSE streams over one tenant session.
func TestEventContextScopesBatches(t *testing.T) {
	t.Parallel()
	static := &sinkRecorder{}
	sess := tooleval.NewSession(tooleval.WithEvents(static.sink))

	batchA := []tooleval.ExperimentSpec{
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{64, 256}},
		{Kind: tooleval.KindRing, Platform: "sun-ethernet", Tool: "p4", Procs: 4, Sizes: []int{64}},
	}
	batchB := []tooleval.ExperimentSpec{
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "pvm", Sizes: []int{64, 256, 1024}},
	}

	var sinkA, sinkB sinkRecorder
	var wg sync.WaitGroup
	run := func(specs []tooleval.ExperimentSpec, rec *sinkRecorder) {
		defer wg.Done()
		ctx := tooleval.EventContext(context.Background(), rec.sink)
		if _, errs := sess.SubmitAll(ctx, specs); errs != nil {
			for i, err := range errs {
				if err != nil {
					t.Errorf("spec %d: %v", i, err)
				}
			}
		}
	}
	wg.Add(2)
	go run(batchA, &sinkA)
	go run(batchB, &sinkB)
	wg.Wait()

	check := func(name string, rec *sinkRecorder, tool string, wantSpecs int) {
		t.Helper()
		starts, dones, cells := 0, 0, 0
		for _, ev := range rec.snapshot() {
			switch e := ev.(type) {
			case tooleval.SpecStart:
				starts++
				if e.Spec.Tool != tool {
					t.Errorf("%s: leaked SpecStart for tool %q (want only %q)", name, e.Spec.Tool, tool)
				}
			case tooleval.SpecDone:
				dones++
			case tooleval.CellEvent:
				cells++
				if e.Cell.Tool != tool {
					t.Errorf("%s: leaked cell %v (want only tool %q)", name, e.Cell, tool)
				}
			}
		}
		if starts != wantSpecs || dones != wantSpecs {
			t.Errorf("%s: %d SpecStart / %d SpecDone, want %d pairs", name, starts, dones, wantSpecs)
		}
		if cells == 0 {
			t.Errorf("%s: no cell events reached the batch sink", name)
		}
	}
	check("batch A", &sinkA, "p4", len(batchA))
	check("batch B", &sinkB, "pvm", len(batchB))

	// The static WithEvents sink still sees everything from both batches.
	starts := 0
	for _, ev := range static.snapshot() {
		if _, ok := ev.(tooleval.SpecStart); ok {
			starts++
		}
	}
	if want := len(batchA) + len(batchB); starts != want {
		t.Errorf("static sink saw %d SpecStarts, want %d", starts, want)
	}
}

// TestEventContextPhases asserts phase events reach a per-batch sink
// (the server streams phase_start/phase_done for evaluate jobs).
func TestEventContextPhases(t *testing.T) {
	t.Parallel()
	sess := tooleval.NewSession()
	var rec sinkRecorder
	ctx := tooleval.EventContext(context.Background(), rec.sink)
	if _, err := sess.Table3(ctx); err != nil {
		t.Fatalf("Table3: %v", err)
	}
	var start, done bool
	for _, ev := range rec.snapshot() {
		switch e := ev.(type) {
		case tooleval.PhaseStart:
			if e.Phase == "table3" {
				start = true
			}
		case tooleval.PhaseDone:
			if e.Phase == "table3" {
				done = true
			}
		}
	}
	if !start || !done {
		t.Fatalf("phase events missing from batch sink: start=%v done=%v", start, done)
	}
}

// TestSessionCloseIdempotentConcurrent is the -race regression test
// for double Close of a session's durable tier: a server closes the
// store on drain while another path may close it too, possibly from
// different goroutines at once. Every call must agree on the store's
// single close outcome, and the session over it stays usable for
// evaluation (it just stops persisting).
func TestSessionCloseIdempotentConcurrent(t *testing.T) {
	t.Parallel()
	st, cache := openTier(t, t.TempDir())
	sess := tooleval.NewSession(tooleval.WithCache(cache))
	if _, err := sess.PingPong(context.Background(), "sun-ethernet", "p4", []int{64}); err != nil {
		t.Fatalf("PingPong: %v", err)
	}
	const callers = 8
	errs := make([]error, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = st.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != errs[0] {
			t.Fatalf("Close call %d returned %v, call 0 returned %v — calls disagree", i, err, errs[0])
		}
		if err != nil {
			t.Fatalf("Close call %d: %v", i, err)
		}
	}
	// A late straggler after everything settled gets the same answer.
	if err := st.Close(); err != nil {
		t.Fatalf("repeated Close: %v", err)
	}
	if _, err := sess.PingPong(context.Background(), "sun-ethernet", "p4", []int{128}); err != nil {
		t.Fatalf("PingPong after Close: %v", err)
	}
}

// TestSessionErrHealthy: a working store under a session reports no
// error mid-run.
func TestSessionErrHealthy(t *testing.T) {
	t.Parallel()
	st, cache := openTier(t, t.TempDir())
	defer st.Close()
	sess := tooleval.NewSession(tooleval.WithCache(cache))
	if _, err := sess.PingPong(context.Background(), "sun-ethernet", "p4", []int{64}); err != nil {
		t.Fatalf("PingPong: %v", err)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("Err on healthy store: %v", err)
	}
}
