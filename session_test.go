package tooleval_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"tooleval"
	"tooleval/internal/mpt"
	"tooleval/internal/mpt/p4"
)

// TestConcurrentSessionsIsolated is the acceptance test of the session
// redesign: two sessions with different parallelism run the complete
// evaluation at the same time (under -race) and must produce
// byte-identical reports from fully isolated caches and stats.
func TestConcurrentSessionsIsolated(t *testing.T) {
	const scale = 0.05
	profile := tooleval.EndUserProfile()
	sessions := []*tooleval.Session{
		tooleval.NewSession(tooleval.WithParallelism(1)),
		tooleval.NewSession(tooleval.WithParallelism(4)),
	}
	reports := make([]string, len(sessions))
	var wg sync.WaitGroup
	for i, sess := range sessions {
		i, sess := i, sess
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev, err := sess.Evaluate(context.Background(), profile, scale)
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			reports[i] = tooleval.RenderEvaluation(ev)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if reports[0] == "" || reports[0] != reports[1] {
		t.Fatalf("concurrent sessions diverged:\n--- j=1 ---\n%s\n--- j=4 ---\n%s", reports[0], reports[1])
	}
	h0, m0 := sessions[0].Stats()
	h1, m1 := sessions[1].Stats()
	if m0 == 0 || m0 != m1 {
		t.Fatalf("isolated sessions must each simulate the same full sweep: misses %d vs %d", m0, m1)
	}
	if h0 != h1 {
		t.Fatalf("hit counts diverged between identical sweeps: %d vs %d", h0, h1)
	}
	if sessions[0].Parallelism() != 1 || sessions[1].Parallelism() != 4 {
		t.Fatalf("parallelism clobbered: %d, %d", sessions[0].Parallelism(), sessions[1].Parallelism())
	}
}

// TestSessionCancellation: a context cancelled mid-sweep aborts the
// evaluation promptly with ctx.Err() instead of simulating the
// remaining cells.
func TestSessionCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sess := tooleval.NewSession(tooleval.WithParallelism(2))
	ctx = tooleval.EventContext(ctx, func(e tooleval.Event) {
		if _, ok := e.(tooleval.CellEvent); ok {
			cancel() // pull the plug as soon as the first cell resolves
		}
	})
	_, err := sess.Evaluate(ctx, tooleval.EndUserProfile(), 0.05)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Evaluate under cancelled ctx = %v, want context.Canceled", err)
	}
	// A full 0.05-scale evaluation is ~250 cells; a prompt abort
	// simulates only the handful already past the scheduler gate.
	if _, misses := sess.Stats(); misses >= 50 {
		t.Fatalf("cancelled sweep still simulated %d cells — not prompt", misses)
	}
}

func TestSessionCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess := tooleval.NewSession()
	if _, err := sess.PingPong(ctx, "sun-ethernet", "p4", []int{0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("PingPong = %v, want context.Canceled", err)
	}
	if _, err := sess.Run(ctx, "sun-ethernet", "p4", tooleval.RunConfig{Procs: 2},
		func(c *tooleval.Ctx) (any, error) { return nil, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if _, err := sess.Submit(ctx, []tooleval.ExperimentSpec{
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0}},
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit = %v, want context.Canceled", err)
	}
	if hits, misses := sess.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("cancelled session simulated: %d hits / %d misses", hits, misses)
	}
}

// TestBenchmarkMethodsEnforcePortMatrix: every session method taking a
// tool name applies the same §3.1 port gate — a TPL sweep must not
// fabricate timings for a port that never existed.
func TestBenchmarkMethodsEnforcePortMatrix(t *testing.T) {
	sess := tooleval.NewSession()
	ctx := context.Background()
	if _, err := sess.PingPong(ctx, "sun-atm-wan", "express", []int{0}); err == nil {
		t.Fatal("PingPong must reject express on NYNET")
	}
	if _, err := sess.Broadcast(ctx, "sun-atm-wan", "express", 4, []int{0}); err == nil {
		t.Fatal("Broadcast must reject express on NYNET")
	}
	if _, err := sess.Ring(ctx, "sun-atm-wan", "express", 4, []int{0}); err == nil {
		t.Fatal("Ring must reject express on NYNET")
	}
	if _, err := sess.GlobalSum(ctx, "sun-atm-wan", "express", 4, []int{10}); err == nil {
		t.Fatal("GlobalSum must reject express on NYNET")
	}
	if _, err := sess.Submit(ctx, []tooleval.ExperimentSpec{
		{Kind: tooleval.KindBroadcast, Platform: "sun-atm-wan", Tool: "express", Procs: 4, Sizes: []int{0}},
	}); err == nil {
		t.Fatal("Submit must reject express on NYNET")
	}
}

func TestSubmitHeterogeneousBatch(t *testing.T) {
	sess := tooleval.NewSession()
	specs := []tooleval.ExperimentSpec{
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0, 1 << 10}},
		{Kind: tooleval.KindRing, Platform: "sun-ethernet", Tool: "express", Procs: 4, Sizes: []int{2 << 10}},
		{Kind: tooleval.KindApp, Platform: "alpha-fddi", Tool: "pvm", App: "montecarlo", ProcsList: []int{1, 2}, Scale: 0.1},
		{Kind: tooleval.KindEvaluate, Scale: 0.05, Profile: "developer"},
	}
	results, err := sess.Submit(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results, want %d", len(results), len(specs))
	}
	if got := results[0].Times; len(got) != 2 || got[1] <= got[0] {
		t.Fatalf("pingpong result %v", got)
	}
	if got := results[1].Times; len(got) != 1 || got[0] <= 0 {
		t.Fatalf("ring result %v", got)
	}
	if app := results[2].App; app.App != "montecarlo" || len(app.Seconds) != 2 {
		t.Fatalf("app result %+v", app)
	}
	if ev := results[3].Evaluation; ev == nil || ev.Profile.Name != "developer" {
		t.Fatalf("evaluate result %+v", results[3].Evaluation)
	}
	// Results must match the same calls made one by one (order
	// preserved, cache shared).
	direct, err := sess.PingPong(context.Background(), "sun-ethernet", "p4", []int{0, 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if direct[i] != results[0].Times[i] {
			t.Fatalf("Submit diverged from direct call: %v vs %v", results[0].Times, direct)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	sess := tooleval.NewSession()
	app := func(name string, procs ...int) []tooleval.ExperimentSpec {
		return []tooleval.ExperimentSpec{{Kind: tooleval.KindApp, Platform: "alpha-fddi", Tool: "p4", App: name, ProcsList: procs, Scale: 0.1}}
	}
	bad := []struct {
		specs []tooleval.ExperimentSpec
		want  string // substring of the error; "" accepts any error
	}{
		{specs: []tooleval.ExperimentSpec{{Kind: "frobnicate"}}},
		{specs: []tooleval.ExperimentSpec{{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4"}}},                              // no sizes
		{specs: []tooleval.ExperimentSpec{{Kind: tooleval.KindRing, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{1}}}},                 // no procs
		{specs: []tooleval.ExperimentSpec{{Kind: tooleval.KindApp, Platform: "sun-ethernet", Tool: "p4", App: "jpeg", ProcsList: []int{1}}}}, // no scale
		{specs: []tooleval.ExperimentSpec{{Kind: tooleval.KindEvaluate, Scale: 0.1, Profile: "operator"}}},                                   // unknown profile
		{specs: []tooleval.ExperimentSpec{{}}},
		// Table 2 names that no experiment measures are not runnable.
		{specs: app("matmul", 4), want: `apps: unknown application "matmul"`},
		{specs: app("knapsack", 4), want: `apps: unknown application "knapsack"`},
		{specs: app("psearch", 4), want: `apps: unknown application "psearch"`},
		{specs: app("raytrace", 4), want: `apps: unknown application "raytrace"`},
		{specs: app("vigenere", 4), want: `apps: unknown application "vigenere"`},
		// An unknown name is rejected before the valid spec ahead of it
		// simulates anything.
		{specs: []tooleval.ExperimentSpec{
			{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0, 1 << 10}},
			app("matmul", 4)[0],
		}, want: `spec 1: app: apps: unknown application "matmul"`},
		{specs: []tooleval.ExperimentSpec{
			{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0, 1 << 10}},
			{Kind: tooleval.KindRing, Platform: "cray-t3d", Tool: "p4", Procs: 4, Sizes: []int{0}},
		}, want: `spec 1: ring: platform: unknown key "cray-t3d"`},
		// fft2d's grid is N = 8 at scale 0.1, so it runs only where p divides 8.
		{specs: app("fft2d", 16), want: "fft2d at scale 0.1 runs on none of the processor counts [16]"},
		{specs: app("fft2d", 3, 5), want: "fft2d at scale 0.1 runs on none of the processor counts [3 5]"},
	}
	for i, tc := range bad {
		_, err := sess.Submit(context.Background(), tc.specs)
		if err == nil {
			t.Errorf("bad spec set %d accepted", i)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("bad spec set %d: error %q, want it to contain %q", i, err, tc.want)
		}
	}
	if hits, misses := sess.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("validation must reject before simulating (%d hits / %d misses)", hits, misses)
	}
}

func TestWithCacheSharesResults(t *testing.T) {
	cache := tooleval.NewCache()
	warm := tooleval.NewSession(tooleval.WithParallelism(2), tooleval.WithCache(cache))
	sizes := []int{0, 4 << 10}
	first, err := warm.PingPong(context.Background(), "sun-ethernet", "pvm", sizes)
	if err != nil {
		t.Fatal(err)
	}
	_, warmMisses := warm.Stats()

	reader := tooleval.NewSession(tooleval.WithParallelism(1), tooleval.WithCache(cache))
	second, err := reader.PingPong(context.Background(), "sun-ethernet", "pvm", sizes)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := reader.Stats(); misses != warmMisses {
		t.Fatalf("shared-cache session re-simulated (%d -> %d misses)", warmMisses, misses)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("shared cache replay differs: %v vs %v", first, second)
		}
	}
}

func TestWithToolRegistersCustomTool(t *testing.T) {
	// A "tool" that forwards to the built-in p4 implementation under a
	// custom name: the registry must resolve it everywhere, including
	// on platforms whose 1995 port matrix never heard of it.
	sess := tooleval.NewSession(tooleval.WithTool("mpi-lite", mpiLite))
	if got := sess.Tools(); got[len(got)-1] != "mpi-lite" {
		t.Fatalf("Tools() = %v, want mpi-lite listed", got)
	}
	ms, err := sess.PingPong(context.Background(), "sun-ethernet", "mpi-lite", []int{0, 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[1] <= ms[0] {
		t.Fatalf("custom tool curve %v", ms)
	}
	if _, err := sess.Run(context.Background(), "sun-atm-wan", "mpi-lite", tooleval.RunConfig{Procs: 2},
		func(c *tooleval.Ctx) (any, error) { return nil, nil }); err != nil {
		t.Fatalf("custom tool must run on every platform: %v", err)
	}
	// Unregistered names still fail.
	if _, err := tooleval.NewSession().PingPong(context.Background(), "sun-ethernet", "mpi-lite", []int{0}); err == nil {
		t.Fatal("unregistered custom tool should error")
	}
}

// mpiLite is a custom tool for the registry test: p4's transport with a
// leaner per-call path (the customtool example's hypothetical 1996
// design).
func mpiLite(env *tooleval.Env) (mpt.Tool, error) {
	par := p4.DefaultParams()
	par.SendFixedOps *= 0.7
	par.RecvFixedOps *= 0.7
	return p4.NewWithParams(env, par)
}

func TestEventContextObservesCells(t *testing.T) {
	var mu sync.Mutex
	events := []tooleval.CellEvent{}
	sess := tooleval.NewSession()
	ctx := tooleval.EventContext(context.Background(), func(e tooleval.Event) {
		if ev, ok := e.(tooleval.CellEvent); ok {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, ev)
		}
	})
	sizes := []int{0, 2 << 10}
	for i := 0; i < 2; i++ {
		if _, err := sess.Ring(ctx, "sun-ethernet", "p4", 4, sizes); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2*len(sizes) {
		t.Fatalf("got %d progress events, want %d", len(events), 2*len(sizes))
	}
	var cached, simulated int
	for _, ev := range events {
		if ev.Cell.Bench != "ring" || ev.Cell.Platform != "sun-ethernet" {
			t.Fatalf("unexpected cell %+v", ev.Cell)
		}
		if ev.Cached {
			cached++
		} else {
			simulated++
		}
	}
	if simulated != len(sizes) || cached != len(sizes) {
		t.Fatalf("events: %d simulated / %d cached, want %d / %d", simulated, cached, len(sizes), len(sizes))
	}
}
