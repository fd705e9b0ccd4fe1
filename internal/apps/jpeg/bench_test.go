package jpeg

import (
	"testing"

	"tooleval/internal/mpt"
	"tooleval/internal/mpt/tools"
	"tooleval/internal/platform"
)

// BenchmarkParallel runs the whole JPEG kernel (scatter, band
// compression, collection and the host's quality decode) and its
// verification on a tenth of the paper-scale input: four ranks of p4 on
// the FDDI-connected Alphas.
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
