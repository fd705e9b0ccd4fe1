package runner

import (
	"sync/atomic"
	"testing"
)

// BenchmarkMemoContention measures the scheduler overhead of many
// goroutines resolving cells through one executor. The cells
// themselves are trivial, so the benchmark is dominated by what the
// paper's matrix never should be dominated by — cache lock and pool
// semaphore traffic. Mostly hits (the steady state of a sweep whose
// report replays memoized curves) with a fresh miss every 16th call to
// keep the insert/evict path and the semaphore hot.
//
//   - serial: one worker — every call through one mutex (the shape at
//     -j 1).
//   - pooled: GOMAXPROCS workers over the same cache (the shape at
//     high -j).
//
// Run them at -cpu 4 or more: single-threaded, the serial/pooled
// comparison is meaningless.
func BenchmarkMemoContention(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func() Executor
	}{
		{"serial", func() Executor { return New(1) }},
		{"pooled", func() Executor { return New(0) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchMemoContention(b, tc.mk())
		})
	}
}
func benchMemoContention(b *testing.B, x Executor) {
	const warm = 512
	compute := func() (CellResult, error) { return CellResult{Value: 1}, nil }
	for i := 0; i < warm; i++ {
		if _, err := x.Memo(bg, Key{Bench: "contend", Size: i}, compute); err != nil {
			b.Fatal(err)
		}
	}
	var fresh atomic.Int64
	fresh.Store(warm)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := 0
		for pb.Next() {
			n++
			key := Key{Bench: "contend", Size: n % warm}
			if n%16 == 0 {
				key.Size = int(fresh.Add(1)) // a genuinely new cell
			}
			if _, err := x.Memo(bg, key, compute); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSweep exercises the whole executor contract the way the
// harness does — Map fan-out over a synthetic matrix of memoized cells
// through the GOMAXPROCS pool.
func BenchmarkSweep(b *testing.B) {
	const cells = 256
	x := New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := x.Map(bg, cells, func(j int) error {
			_, err := x.Memo(bg, Key{Bench: "sweep", Size: j}, func() (CellResult, error) {
				return CellResult{Value: float64(j)}, nil
			})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
