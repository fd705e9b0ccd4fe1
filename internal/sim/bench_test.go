package sim

import (
	"testing"
	"time"
)

// Microbenchmarks for the engine's hot paths. Every table and figure the
// evaluation produces decomposes into virtual-time simulation cells, so
// the cost of one Sleep/Unpark cycle multiplies through the entire
// toolbench sweep. The three workload shapes below are the ones the
// message-passing models actually generate:
//
//   - sleep storm: many processes advancing local time in small steps
//     (network transmission delays, CPU cost modeling);
//   - spawn/exit churn: short-lived processes (per-message helper
//     daemons, per-cell rank setup);
//   - unpark fan-out: one event waking many parked processes (barrier
//     release, broadcast delivery, WaitQ.WakeAll).
//
// All benchmarks use virtual time only and are bit-deterministic, so
// ns/op and allocs/op are comparable across commits (compare them with
// repeated -count runs; BENCH_LEDGER.json holds past snapshots).

// runStorm is the shared sleep-storm workload: procs processes each
// performing sleeps short sleeps with distinct periods, forcing constant
// re-heapification and park/wake cycling. Shared with the zero-alloc
// budget tests in alloc_test.go so the benchmark and its guard cannot
// drift apart.
func runStorm(tb testing.TB, e *Engine, procs, sleeps int) {
	tb.Helper()
	for pi := 0; pi < procs; pi++ {
		d := time.Duration(pi+1) * time.Microsecond
		e.Spawn("p", func(p *Proc) {
			for k := 0; k < sleeps; k++ {
				p.Sleep(d)
			}
		})
	}
	if err := e.Run(); err != nil {
		tb.Fatal(err)
	}
}

// runFanout is the shared unpark fan-out workload: one waker releasing
// waiters parked processes rounds times (the WakeAll shape of barriers
// and broadcast delivery). Shared with alloc_test.go like runStorm.
func runFanout(tb testing.TB, e *Engine, waiters, rounds int) {
	tb.Helper()
	var q WaitQ
	for w := 0; w < waiters; w++ {
		e.Spawn("w", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				q.Wait(p, "fanout")
			}
		})
	}
	e.Spawn("waker", func(p *Proc) {
		for r := 0; r < rounds; r++ {
			p.Sleep(time.Microsecond)
			q.WakeAll()
		}
	})
	if err := e.Run(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSleepStorm is the headline engine benchmark: 8 interleaving
// sleepers, 8000 park/wake cycles per iteration.
func BenchmarkSleepStorm(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runStorm(b, NewEngine(), 8, 1000)
	}
}

// BenchmarkSleepStormSingle is the degenerate storm: one process whose
// wake is always the next event, the best case for any scheduler.
func BenchmarkSleepStormSingle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runStorm(b, NewEngine(), 1, 8000)
	}
}

// BenchmarkSpawnExitChurn spawns 500 processes that run one event's
// worth of work and exit, per iteration.
func BenchmarkSpawnExitChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for k := 0; k < 500; k++ {
			e.Spawn("c", func(p *Proc) {
				p.Sleep(time.Microsecond)
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnparkFanout releases 64 parked processes 100 times per
// iteration.
func BenchmarkUnparkFanout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runFanout(b, NewEngine(), 64, 100)
	}
}

// BenchmarkEventFlood schedules and drains 10000 bare events (the
// Engine.At closure path used by message delivery and timers).
func BenchmarkEventFlood(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		sink := 0
		for k := 0; k < 10000; k++ {
			at := Time(k%977) * Time(time.Microsecond)
			e.At(at, "flood", func() { sink++ })
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		if sink != 10000 {
			b.Fatalf("fired %d events, want 10000", sink)
		}
	}
}

// Pooled variants: the same workloads on engines recycled through
// AcquireEngine/Release, the way mpt.Run executes a benchmark sweep's
// cells. After the first iteration the free list and queue storage are
// warm, so these measure the sweep steady state rather than cold-start
// allocation.

// BenchmarkSleepStormPooled is BenchmarkSleepStorm on a pooled engine.
func BenchmarkSleepStormPooled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := AcquireEngine()
		runStorm(b, e, 8, 1000)
		e.Release()
	}
}

// BenchmarkEventFloodPooled is BenchmarkEventFlood with a pooled engine
// and the closure-free AtCall path.
func BenchmarkEventFloodPooled(b *testing.B) {
	b.ReportAllocs()
	sink := 0
	bump := func(any) { sink++ }
	for i := 0; i < b.N; i++ {
		e := AcquireEngine()
		sink = 0
		for k := 0; k < 10000; k++ {
			at := Time(k%977) * Time(time.Microsecond)
			e.AtCall(at, "flood", bump, nil)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		if sink != 10000 {
			b.Fatalf("fired %d events, want 10000", sink)
		}
		e.Release()
	}
}
