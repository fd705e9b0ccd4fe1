// Benchmarks for the durable result store: what a sweep costs when it
// must populate the store (cold) versus when every cell replays from
// disk (warm). The pair bounds the write-through overhead and the
// restart win that `toolbench all -store` buys.
package tooleval_test

import (
	"os"
	"testing"

	"tooleval"
)

// benchStoreSweep runs the Table 3 sweep (the paper's send/receive
// matrix — a few hundred cells) through a store-backed session.
func benchStoreSweep(b *testing.B, dir string) {
	b.Helper()
	st, err := tooleval.OpenResultStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	cache := tooleval.NewCache()
	cache.SetTier(st)
	sess := tooleval.NewSession(tooleval.WithCache(cache))
	if _, err := sess.Table3(benchCtx); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreColdSweep measures a first run against an empty store:
// every cell simulates and is persisted. Compare with BenchmarkTable3
// (no store) to see the write-through overhead.
func BenchmarkStoreColdSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp(b.TempDir(), "cold")
		if err != nil {
			b.Fatal(err)
		}
		benchStoreSweep(b, dir)
	}
}

// BenchmarkStoreWarmSweep measures a restart against a populated store:
// opening the segment, replaying its index, and serving the whole sweep
// without simulating a single cell.
func BenchmarkStoreWarmSweep(b *testing.B) {
	dir := b.TempDir()
	benchStoreSweep(b, dir) // populate once, outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStoreSweep(b, dir)
	}
}
