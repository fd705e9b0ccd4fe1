package psrs

import (
	"testing"

	"tooleval/internal/mpt"
	"tooleval/internal/mpt/tools"
	"tooleval/internal/platform"
)

// BenchmarkRecordCodec encodes and decodes one rank's share of the
// paper-scale exchange at 64-byte records; bytes/s counts encoded bytes.
func BenchmarkRecordCodec(b *testing.B) {
	const recordBytes = 64
	keys := generate(DefaultConfig().Scaled(0.1), 0, 4)
	b.SetBytes(int64(len(keys) * recordBytes))
	b.ReportAllocs()
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = encodeRecords(buf, keys, recordBytes)
		if _, err := decodeRecords(buf, recordBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallel runs the whole PSRS kernel and its verification on
// a tenth of the paper-scale input: four ranks of p4 on the
// FDDI-connected Alphas.
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
