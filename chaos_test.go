package tooleval_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"tooleval"
	"tooleval/internal/faults"
)

// The root-package half of the seeded chaos suite: inject faults into
// the result tier mid-sweep and assert the reports a session serves are
// byte-identical to a fault-free run. The Tier contract says a tier can
// only change cost, never results — a faulted lookup is a miss that
// re-simulates, a faulted fill is a cell that goes unpersisted — and
// this is where that contract is pinned end to end.

func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	seed, pinned := faults.PickSeed("TOOLEVAL_CHAOS_SEED", testing.Short())
	if pinned {
		t.Logf("chaos seed %d (pinned)", seed)
	} else {
		t.Logf("chaos seed %d (rerun with TOOLEVAL_CHAOS_SEED=%d to reproduce)", seed, seed)
	}
	return seed
}

var chaosBatch = []tooleval.ExperimentSpec{
	{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0, 64, 1024}},
	{Kind: tooleval.KindRing, Platform: "sun-atm-lan", Tool: "pvm", Procs: 4, Sizes: []int{64}},
	{Kind: tooleval.KindApp, Platform: "sun-ethernet", Tool: "p4", App: "fft2d", ProcsList: []int{1, 2, 4}, Scale: 1},
}

// chaosReport renders a batch outcome to canonical bytes for
// byte-identity comparison.
func chaosReport(t *testing.T, results []tooleval.Result, errs []error) []byte {
	t.Helper()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
	}
	blob, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	return blob
}

// TestChaosFaultyTierKeepsReportsByteIdentical wires a seeded
// fault-injecting decorator between the session cache and the durable
// store — lookups randomly forced to miss, fills randomly dropped,
// seeded latency on both — and asserts the reports are byte-identical
// to a fault-free session's, sweep after sweep.
func TestChaosFaultyTierKeepsReportsByteIdentical(t *testing.T) {
	seed := chaosSeed(t)

	clean := tooleval.NewSession()
	wantRes, wantErrs := clean.SubmitAll(bg, chaosBatch)
	want := chaosReport(t, wantRes, wantErrs)

	dir := t.TempDir()
	st, err := tooleval.OpenResultStore(dir)
	if err != nil {
		t.Fatalf("OpenResultStore: %v", err)
	}
	sched := faults.NewSchedule(seed, faults.Plan{
		LookupMiss:  0.4,
		FillDrop:    0.4,
		Latency:     200 * time.Microsecond,
		LatencyRate: 0.2,
	})
	tier := faults.NewTier(st, sched)
	cache := tooleval.NewCache()
	cache.SetTier(tier)
	sess := tooleval.NewSession(tooleval.WithCache(cache))

	// Two sweeps through the faulted tier: the first simulates (some
	// fills dropped), the second replays from cache and store (some
	// lookups forced back to simulation). Both must match the clean run.
	for pass := 1; pass <= 2; pass++ {
		res, errs := sess.SubmitAll(bg, chaosBatch)
		got := chaosReport(t, res, errs)
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d: faulted report differs from fault-free run\nfaulted:  %.200s\nclean: %.200s",
				pass, got, want)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("store Close: %v", err)
	}
	stats := tier.Stats()
	if stats.LookupFaults == 0 && stats.FillFaults == 0 {
		t.Fatalf("no faults injected (stats %+v): the chaos seam is not wired", stats)
	}
	t.Logf("tier faults: %d/%d lookups, %d/%d fills",
		stats.LookupFaults, stats.Lookups, stats.FillFaults, stats.Fills)

	// Whatever subset of cells survived the dropped fills, a fresh
	// session replaying from the store must still render the exact same
	// bytes — stored cells are indistinguishable from simulated ones.
	replayStore, replayCache := openTier(t, dir)
	replay := tooleval.NewSession(tooleval.WithCache(replayCache))
	res, errs := replay.SubmitAll(bg, chaosBatch)
	got := chaosReport(t, res, errs)
	if !bytes.Equal(got, want) {
		t.Fatalf("replay from post-chaos store differs from fault-free run")
	}
	if err := replayStore.Close(); err != nil {
		t.Fatalf("replay store Close: %v", err)
	}
}
