package mpt_test

import (
	"math"
	"runtime"
	"testing"

	"tooleval/internal/mpt"
)

// Host byte budgets for the message path. The simulated cost of a hop
// depends only on payload lengths, so every host copy beyond the
// modelled ones is pure overhead; these budgets pin the copies the
// payload ownership rule removed. TotalAlloc only grows, so GC timing
// cannot move the delta; the budgets still leave headroom over the
// measured figure for the harness's own small allocations.

// allocBytes reports the bytes one mpt.Run of body allocates, measured
// after a warm-up run has filled the engine pool. It runs on one P: with
// more, the runtime allocates goroutine and sudog records for whichever
// P's cache happens to be empty, which moves a small run's figure by
// several hundred bytes from one run to the next. Even on one P a
// garbage collection can empty those caches between runs (by up to
// about 1.2 KB under -race), and that noise only ever adds, so the
// figure is the least of several runs.
func allocBytes(t *testing.T, tool string, procs int, body mpt.Body) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pf := mustPlatform(t, "sun-ethernet")
	f := mustFactory(t, tool)
	run := func() {
		if _, err := mpt.Run(pf, f, mpt.RunConfig{Procs: procs}, body); err != nil {
			t.Fatal(err)
		}
	}
	run()
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestGlobalSumByteBudget: a 4-rank p4 global sum of 100K int64s. What
// must allocate is, per rank, the input vector, its encoding and the
// decoded result: 12 vectors. The tree sends (3 reduce, 3 broadcast)
// hand the combine's own buffers on by reference and copy nothing;
// copying at each of them cost 6 more, and combining by
// decode-add-encode 9 more again.
func TestGlobalSumByteBudget(t *testing.T) {
	const (
		n      = 100_000
		vecB   = 8 * n
		budget = 13 * vecB
	)
	got := allocBytes(t, "p4", 4, func(c *mpt.Ctx) (any, error) {
		vec := make([]int64, n)
		for i := range vec {
			vec[i] = int64(i)
		}
		_, err := c.Comm.GlobalSumInt64(vec)
		return nil, err
	})
	t.Logf("global sum: %d B = %.1f vectors", got, float64(got)/vecB)
	if got > budget {
		t.Fatalf("global sum allocated %d B = %.1f vectors of %d B; budget is 13", got, float64(got)/vecB, vecB)
	}
}

// TestPVMSendByteBudget: one PVM send/receive through the daemons. The
// XDR pass (with its route envelope) and the unpack are one payload
// each; the fragment frames are headers that carry their chunks by
// reference, and the receiving daemon hands the task those chunks as a
// list, which the unpack decodes without a reassembly buffer. At 1 KiB
// the fixed cost of the run (messages, headers, daemon state) weighs
// several payloads. Gathering the fragments into a reassembly buffer
// cost one payload more at 64 KiB, copying every chunk into its frame
// one more again, and copying at every daemon hop about 12; building a
// map of park-reason strings in every mailbox cost one payload at 1 KiB.
func TestPVMSendByteBudget(t *testing.T) {
	for _, tc := range []struct {
		size   int
		budget float64 // payloads
	}{
		{64 << 10, 2.5},
		{1 << 10, 7},
	} {
		payload := make([]byte, tc.size)
		got := allocBytes(t, "pvm", 2, func(c *mpt.Ctx) (any, error) {
			if c.Rank() == 0 {
				return nil, c.Comm.Send(1, 1, payload)
			}
			_, err := c.Comm.Recv(0, 1)
			return nil, err
		})
		ratio := float64(got) / float64(tc.size)
		t.Logf("pvm send of %d B: %d B = %.1f payloads", tc.size, got, ratio)
		if ratio > tc.budget {
			t.Fatalf("pvm send of %d B allocated %d B = %.1f payloads; budget is %g", tc.size, got, ratio, tc.budget)
		}
	}
}
