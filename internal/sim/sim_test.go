package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEngine()
	var end Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		p.Sleep(2 * time.Millisecond)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := Time(5 * time.Millisecond); end != want {
		t.Fatalf("end time = %v, want %v", end, want)
	}
}

func TestEventOrderingByTimeThenSeq(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(Time(2*time.Second), "b", func() { got = append(got, "b") })
	e.At(Time(1*time.Second), "a", func() { got = append(got, "a") })
	e.At(Time(2*time.Second), "c", func() { got = append(got, "c") }) // same time as b, later seq
	e.At(Time(3*time.Second), "d", func() { got = append(got, "d") })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "c", "d"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestInterleavingIsRoundRobinByWakeTime(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("p%d", i)
			d := time.Duration(i+1) * time.Millisecond
			e.Spawn(name, func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Sleep(d)
					log = append(log, fmt.Sprintf("%s@%v", name, p.Now()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return log
	}
	first := run()
	for i := 0; i < 5; i++ {
		if again := run(); !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d differs:\nfirst  %v\nsecond %v", i, first, again)
		}
	}
}

func TestDeterministicTraceAcrossRuns(t *testing.T) {
	run := func(seed int64) []TraceEvent {
		e := NewEngine()
		var tr []TraceEvent
		e.SetTrace(func(ev TraceEvent) { tr = append(tr, ev) })
		rng := rand.New(rand.NewSource(seed))
		delays := make([]time.Duration, 20)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(1000)) * time.Microsecond
		}
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				for k := 0; k < 5; k++ {
					p.Sleep(delays[i*5+k])
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return tr
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) {
		p.Park("waiting for a message that never comes")
	})
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 {
		t.Fatalf("Blocked = %v, want exactly one entry", dl.Blocked)
	}
}

// countedReason is a ParkFor reason that counts how often it is read.
type countedReason struct{ reads int }

func (r *countedReason) String() string { r.reads++; return "counted" }

// TestParkForFormatsOnlyWhenRead: a ParkFor reason is formatted by a
// deadlock report or a trace, and never on an untraced park and wake.
func TestParkForFormatsOnlyWhenRead(t *testing.T) {
	woken, stuck := &countedReason{}, &countedReason{}
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.ParkFor(stuck)
	})
	e.Spawn("woken", func(p *Proc) {
		e.After(time.Millisecond, "wake", func() { e.Unpark(p) })
		p.ParkFor(woken)
	})
	var dl *DeadlockError
	if err := e.Run(); !errors.As(err, &dl) || !reflect.DeepEqual(dl.Blocked, []string{"stuck (counted)"}) {
		t.Fatalf("Run = %v, want stuck blocked on its ParkFor reason", err)
	}
	if woken.reads != 0 || stuck.reads != 1 {
		t.Fatalf("reason reads: woken %d, stuck %d; want 0 and 1 (the deadlock report)", woken.reads, stuck.reads)
	}

	var details []string
	e = NewEngine()
	e.SetTrace(func(ev TraceEvent) {
		if ev.Proc == "woken" && (ev.Kind == "park" || ev.Kind == "wake") {
			details = append(details, ev.Kind+" "+ev.Detail)
		}
	})
	e.Spawn("woken", func(p *Proc) {
		e.After(time.Millisecond, "wake", func() { e.Unpark(p) })
		p.ParkFor(woken)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"park counted", "wake counted"}; !reflect.DeepEqual(details, want) {
		t.Fatalf("traced park/wake details = %v, want %v", details, want)
	}
}

func TestDaemonDoesNotTriggerDeadlock(t *testing.T) {
	e := NewEngine()
	e.Spawn("daemon", func(p *Proc) {
		p.SetDaemon(true)
		p.Park("idle routing loop")
	})
	e.Spawn("worker", func(p *Proc) {
		p.Sleep(time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run = %v, want nil (daemon may stay parked)", err)
	}
}

func TestUnparkResumesProcess(t *testing.T) {
	e := NewEngine()
	var parked *Proc
	var resumedAt Time
	parked = e.Spawn("sleeper", func(p *Proc) {
		p.Park("until poked")
		resumedAt = p.Now()
	})
	e.Spawn("poker", func(p *Proc) {
		p.Sleep(7 * time.Millisecond)
		e.Unpark(parked)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := Time(7 * time.Millisecond); resumedAt != want {
		t.Fatalf("resumedAt = %v, want %v", resumedAt, want)
	}
}

func TestPanicInProcessSurfacesAsError(t *testing.T) {
	e := NewEngine()
	e.Spawn("bomb", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	err := e.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run = %v, want PanicError", err)
	}
	if pe.Proc != "bomb" {
		t.Fatalf("Proc = %q, want bomb", pe.Proc)
	}
}

func TestWaitQWakeOneIsFIFO(t *testing.T) {
	e := NewEngine()
	var q WaitQ
	var order []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("w%d", i)
		d := time.Duration(i) * time.Millisecond
		e.Spawn(name, func(p *Proc) {
			p.Sleep(d) // deterministic arrival order w0, w1, w2
			q.Wait(p, "queued")
			order = append(order, name)
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		for i := 0; i < 3; i++ {
			q.WakeOne()
			p.Sleep(time.Millisecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"w0", "w1", "w2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("wake order = %v, want %v", order, want)
	}
}

func TestWaitQWakeAll(t *testing.T) {
	e := NewEngine()
	var q WaitQ
	woke := 0
	for i := 0; i < 5; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			q.Wait(p, "barrier")
			woke++
		})
	}
	e.Spawn("releaser", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.WakeAll()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
}

func TestNoGoroutineLeakAfterRun(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		e := NewEngine()
		e.Spawn("daemon", func(p *Proc) {
			p.SetDaemon(true)
			p.Park("forever")
		})
		e.Spawn("worker", func(p *Proc) { p.Sleep(time.Millisecond) })
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	// Give the killed goroutines a moment to unwind.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestNoGoroutineLeakAfterPanic: a panic aborts the run before a
// process spawned beside it ever starts; shutdown must still unwind that
// process's goroutine, which would otherwise keep its engine reachable.
func TestNoGoroutineLeakAfterPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		e := NewEngine()
		e.Spawn("bomb", func(p *Proc) { panic("boom") })
		e.Spawn("idle", func(p *Proc) { p.Sleep(time.Millisecond) })
		var pe *PanicError
		if err := e.Run(); !errors.As(err, &pe) {
			t.Fatalf("Run = %v, want PanicError", err)
		}
	}
	// The unwound goroutines exit just after their shutdown handshake;
	// yield until they have.
	for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine()
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childRan = true
		})
		p.Sleep(5 * time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !childRan {
		t.Fatal("child process never ran")
	}
}

func TestRunTwiceFails(t *testing.T) {
	e := NewEngine()
	if err := e.Run(); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("second Run succeeded, want error")
	}
}

func TestTimeAddClamping(t *testing.T) {
	if got := Time(5).Add(-100 * time.Nanosecond); got != 0 {
		t.Fatalf("negative result = %v, want clamp to 0", got)
	}
	if got := Time(10).Add(5 * time.Nanosecond); got != 15 {
		t.Fatalf("Add = %v, want 15", got)
	}
}

// Property: for any set of random sleeps, trace event times are
// monotonically non-decreasing (virtual time never runs backwards).
func TestPropertyTraceTimesMonotonic(t *testing.T) {
	prop := func(seed int64, nProcsRaw uint8) bool {
		nProcs := int(nProcsRaw%5) + 1
		e := NewEngine()
		var last Time
		ok := true
		e.SetTrace(func(ev TraceEvent) {
			if ev.T < last {
				ok = false
			}
			last = ev.T
		})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < nProcs; i++ {
			n := rng.Intn(10) + 1
			ds := make([]time.Duration, n)
			for k := range ds {
				ds[k] = time.Duration(rng.Intn(5000)) * time.Microsecond
			}
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for _, d := range ds {
					p.Sleep(d)
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: events scheduled at time t never observe Engine.Now() != t.
func TestPropertyEventSeesItsOwnTime(t *testing.T) {
	prop := func(offsets []uint16) bool {
		e := NewEngine()
		ok := true
		for _, off := range offsets {
			at := Time(off) * Time(time.Microsecond)
			e.At(at, "check", func() {
				if e.Now() != at {
					ok = false
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapRandomizedAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	var want []int64
	for i := 0; i < 500; i++ {
		tm := Time(rng.Intn(1000))
		h.push(&event{t: tm, seq: uint64(i)})
		want = append(want, int64(tm))
	}
	var prev *event
	for h.Len() > 0 {
		ev := h.pop()
		if prev != nil {
			if ev.t < prev.t || (ev.t == prev.t && ev.seq < prev.seq) {
				t.Fatalf("heap order violated: (%v,%d) after (%v,%d)", ev.t, ev.seq, prev.t, prev.seq)
			}
		}
		prev = ev
	}
	_ = want
}

// TestParkFromDeferDuringShutdown: a process whose deferred cleanup
// parks again while the shutdown kill is unwinding it must not strand
// Run — the park keeps unwinding instead of waiting for a resume that
// can never come.
func TestParkFromDeferDuringShutdown(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		e := NewEngine()
		e.Spawn("cleanup-parker", func(p *Proc) {
			defer p.Sleep(time.Millisecond) // parks during the kill unwind
			p.Park("waiting forever")
		})
		done <- e.Run()
	}()
	select {
	case err := <-done:
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("Run = %v, want DeadlockError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run hung: shutdown kill deadlocked on a parking defer")
	}
}
