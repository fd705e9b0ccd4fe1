// Serial-vs-parallel benchmarks of a real TPL figure. They live in an
// external test package so they can drive internal/bench (which itself
// builds on runner) without an import cycle. Each iteration builds a
// fresh harness — and with it an empty memoization cache — so the
// benchmark times real simulations, not cache replay.
package runner_test

import (
	"context"
	"testing"

	"tooleval/internal/bench"
	"tooleval/internal/runner"
)

func benchmarkFig2(b *testing.B, workers int) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := bench.NewHarness(runner.New(workers), nil)
		fig, err := h.Fig2(ctx, 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig2Serial(b *testing.B)    { benchmarkFig2(b, 1) }
func BenchmarkFig2Parallel2(b *testing.B) { benchmarkFig2(b, 2) }
func BenchmarkFig2Parallel4(b *testing.B) { benchmarkFig2(b, 4) }
func BenchmarkFig2Parallel8(b *testing.B) { benchmarkFig2(b, 8) }

// BenchmarkFig2Memoized measures the cache-replay path: everything
// after the first iteration is pure hits, so this is the cost of
// serving a whole figure from the memoization cache.
func BenchmarkFig2Memoized(b *testing.B) {
	ctx := context.Background()
	h := bench.NewHarness(runner.New(4), nil)
	if _, err := h.Fig2(ctx, 4); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig2(ctx, 4); err != nil {
			b.Fatal(err)
		}
	}
}
