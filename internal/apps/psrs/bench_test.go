package psrs

import (
	"fmt"
	"slices"
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
		if _, err := decodeRecords(nil, buf, recordBytes); err != nil {
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

// BenchmarkSortKeys compares the Phase 1 radix sort with slices.Sort on
// one rank's share of a tenth of the paper-scale input at p = 1, 4 and 8.
func BenchmarkSortKeys(b *testing.B) {
	cfg := DefaultConfig().Scaled(0.1)
	for _, p := range []int{1, 4, 8} {
		input := generate(cfg, 0, p)
		keys := make([]int64, len(input))
		b.Run(fmt.Sprintf("radix/p%d", p), func(b *testing.B) {
			tmp := make([]int64, len(input))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(keys, input)
				tmp = sortKeys(keys, tmp)
			}
		})
		b.Run(fmt.Sprintf("slices/p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(keys, input)
				slices.Sort(keys)
			}
		})
	}
}
