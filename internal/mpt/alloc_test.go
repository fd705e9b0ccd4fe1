package mpt_test

import (
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
// after a warm-up run has filled the engine pool.
func allocBytes(t *testing.T, tool string, procs int, body mpt.Body) uint64 {
	t.Helper()
	pf := mustPlatform(t, "sun-ethernet")
	f := mustFactory(t, tool)
	run := func() {
		if _, err := mpt.Run(pf, f, mpt.RunConfig{Procs: procs}, body); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestGlobalSumByteBudget: a 4-rank p4 global sum of 100K int64s. What
// must allocate is, per rank, the input vector, its encoding and the
// decoded result, plus one modelled copy per tree send (3 reduce, 3
// broadcast): 18 vectors. Combining by decode-add-encode cost 9 more.
func TestGlobalSumByteBudget(t *testing.T) {
	const (
		n      = 100_000
		vecB   = 8 * n
		budget = 22 * vecB
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
		t.Fatalf("global sum allocated %d B = %.1f vectors of %d B; budget is 22", got, float64(got)/vecB, vecB)
	}
}

// TestPVMSendByteBudget: one 64 KiB PVM send/receive through the
// daemons. The XDR pass (with its route envelope), the fragment wire
// frames, the reassembly buffer and the unpack are one payload each.
// Copying at every daemon hop cost about 12.
func TestPVMSendByteBudget(t *testing.T) {
	const (
		size   = 64 << 10
		budget = 7 * size
	)
	payload := make([]byte, size)
	got := allocBytes(t, "pvm", 2, func(c *mpt.Ctx) (any, error) {
		if c.Rank() == 0 {
			return nil, c.Comm.Send(1, 1, payload)
		}
		_, err := c.Comm.Recv(0, 1)
		return nil, err
	})
	t.Logf("pvm send: %d B = %.1f payloads", got, float64(got)/size)
	if got > budget {
		t.Fatalf("pvm send allocated %d B = %.1f payloads of %d B; budget is 7", got, float64(got)/size, size)
	}
}
