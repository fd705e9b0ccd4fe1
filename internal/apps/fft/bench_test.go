package fft

import (
	"testing"

	"tooleval/internal/mpt"
	"tooleval/internal/mpt/tools"
	"tooleval/internal/platform"
)

// BenchmarkParallel runs the whole 2D-FFT kernel (the row-band scatter,
// row FFTs, the all-to-all transpose, column FFTs and the gather on rank
// 0) and its verification at a tenth of the paper scale (N = 8): four
// ranks of p4 on the FDDI-connected Alphas.
func BenchmarkParallel(b *testing.B) {
	pf, err := platform.Get("alpha-fddi")
	if err != nil {
		b.Fatal(err)
	}
	factory, err := tools.Factory("p4")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig().Scaled(0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mpt.Run(pf, factory, mpt.RunConfig{Procs: 4}, func(ctx *mpt.Ctx) (any, error) {
			return Parallel(ctx, cfg)
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := VerifyAgainstSequential(cfg, res.Value.(*Result)); err != nil {
			b.Fatal(err)
		}
	}
}
