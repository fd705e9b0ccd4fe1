package mpt_test

import (
	"fmt"
	"runtime"
	"testing"

	"tooleval/internal/mpt"
)

// Layer benchmarks of the message path: the host cost of one mpt.Run
// per op, with allocations and the bytes allocated per payload byte
// (B/payload-B). The payload is what the user hands the tool: every
// rank's vector for a global sum, the message for a send. The simulated
// time of these runs is pinned elsewhere; only host cost is measured.

// benchRun runs body once per iteration over tool and reports the bytes
// allocated per payload byte.
func benchRun(b *testing.B, tool string, procs, payloadB int, body mpt.Body) {
	pf := mustPlatform(b, "sun-ethernet")
	f := mustFactory(b, tool)
	cfg := mpt.RunConfig{Procs: procs}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpt.Run(pf, f, cfg, body); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(payloadB), "B/payload-B")
}

// BenchmarkGlobalSum is Figure 4's primitive on the two tools that have
// one: four ranks each contribute n int64s.
func BenchmarkGlobalSum(b *testing.B) {
	const procs = 4
	for _, tool := range []string{"p4", "express"} {
		for _, n := range []int{1_000, 100_000} {
			b.Run(fmt.Sprintf("%s/n=%d", tool, n), func(b *testing.B) {
				benchRun(b, tool, procs, procs*8*n, func(c *mpt.Ctx) (any, error) {
					vec := make([]int64, n)
					for i := range vec {
						vec[i] = int64(c.Rank() + i)
					}
					_, err := c.Comm.GlobalSumInt64(vec)
					return nil, err
				})
			})
		}
	}
}

// BenchmarkPVMSend is one PVM send and receive through the daemons: one
// fragment at 1 KiB, seventeen at 64 KiB.
func BenchmarkPVMSend(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10} {
		payload := make([]byte, size)
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			benchRun(b, "pvm", 2, size, func(c *mpt.Ctx) (any, error) {
				if c.Rank() == 0 {
					return nil, c.Comm.Send(1, 1, payload)
				}
				_, err := c.Comm.Recv(0, 1)
				return nil, err
			})
		})
	}
}
