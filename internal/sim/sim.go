// Package sim provides a deterministic discrete-event simulation engine
// with process-oriented concurrency.
//
// Simulated processes are ordinary Go functions running on goroutines, but
// the engine guarantees that exactly one process executes at any instant:
// a process runs until it blocks (Sleep, Park, or a higher-level primitive
// built on them), at which point the next event is popped off a priority
// queue ordered by (virtual time, sequence number). Ties are broken by
// insertion order, so a simulation is bit-for-bit reproducible across runs
// and platforms.
//
// The scheduler is direct-switch: there is no dedicated engine goroutine
// that every yield must bounce through. Whichever goroutine is currently
// running — the Run caller initially, then each resumed process — owns the
// "engine role" and dispatches events itself until an event resumes
// another process, at which point the role is handed over with a single
// channel send (one handoff per yield instead of the classic two). When
// the next event wakes the very process that is parking, control never
// leaves its goroutine and the yield costs no channel operation at all.
//
// Event scheduling is allocation-free in steady state: events are small
// tagged structs drawn from an engine-owned free list — a wake carries
// its target process directly instead of a closure — and trace labels
// are only materialized when a TraceFunc is installed. Engines can be
// pooled across simulations with AcquireEngine/Release (or reused
// directly via Reset), so a sweep of hundreds of cells reuses queue and
// free-list storage instead of regrowing it.
//
// The engine is the substrate for the tooleval network models and
// message-passing tools: all timing in the reproduced experiments is
// virtual time produced by this engine, never wall-clock time.
package sim

import (
	"fmt"
	"sort"
	"time"
)

// Time is an absolute virtual timestamp in nanoseconds since the start of
// the simulation. The zero Time is the simulation epoch.
type Time int64

// Duration converts a virtual time span to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Milliseconds reports t as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(time.Millisecond) }

// Add returns t shifted by d. Negative results are clamped to zero so that
// model arithmetic can never schedule into the past.
func (t Time) Add(d time.Duration) Time {
	r := t + Time(d)
	if r < t && d > 0 { // overflow guard
		return t
	}
	if r < 0 {
		return 0
	}
	return r
}

func (t Time) String() string { return time.Duration(t).String() }

// killedPanic is thrown through a process goroutine to unwind it when the
// engine shuts the simulation down. It never escapes the package.
type killedPanic struct{}

// DeadlockError reports that the event queue drained while non-daemon
// processes were still blocked: the simulated system can make no further
// progress. Blocked lists each stuck process with the reason it parked,
// which is the engine's primary debugging aid.
type DeadlockError struct {
	At      Time
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) blocked: %v", e.At, len(e.Blocked), e.Blocked)
}

// PanicError reports that a simulated process panicked. The simulation is
// aborted and the panic is surfaced as an error from Run.
type PanicError struct {
	Proc  string
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", e.Proc, e.Value)
}

// TraceEvent is one entry of the engine's execution trace. Traces support
// the debugging-support criterion of the evaluation methodology: they let a
// user replay exactly what a tool did and when.
type TraceEvent struct {
	T      Time
	Kind   string // "spawn", "wake", "park", "exit", "event"
	Proc   string
	Detail string
}

// TraceFunc receives trace events as they occur. It must not call back
// into the engine.
type TraceFunc func(TraceEvent)

// evKind tags an event with its dispatch fast path. Wake-class events
// (evStart, evWake, evUnpark) carry the target process directly instead of
// a closure, so scheduling them allocates nothing once the free list is
// warm.
type evKind uint8

const (
	evFn     evKind = iota // run fn() — the general At path
	evCall                 // run call(a, b) — the closure-free At variant
	evStart                // first dispatch of a spawned process
	evWake                 // resume a sleeping process
	evUnpark               // resume the process iff it is still parked
)

// event is one scheduled occurrence. Events are owned by the engine and
// return to its free list after dispatch, so steady-state scheduling
// performs no allocation; callers never see them.
type event struct {
	t    Time
	seq  uint64
	kind evKind
	p    *Proc         // evStart/evWake/evUnpark target
	name string        // evFn/evCall trace label
	fn   func()        // evFn
	call func(arg any) // evCall
	arg  any           // evCall argument
}

// schedResult reports why a schedule loop stopped on this goroutine.
type schedResult uint8

const (
	// schedDrained: the queue is empty (or a process panic aborted the
	// run); the simulation is over.
	schedDrained schedResult = iota
	// schedHandedOff: the engine role was handed to a resumed process.
	schedHandedOff
	// schedSelf: the resumed process is the caller's own — control never
	// left this goroutine.
	schedSelf
)

// Engine is a discrete-event simulation engine. The zero value is not
// usable; call NewEngine (or AcquireEngine for a pooled one).
type Engine struct {
	now   Time
	seq   uint64
	queue eventHeap
	free  []*event // recycled events; steady-state scheduling is zero-alloc
	procs []*Proc
	trace TraceFunc
	fatal error
	ran   bool
	// stopping marks the shutdown phase: killed processes hand their
	// channel back to Run instead of continuing to dispatch events.
	stopping bool
	// done is signaled by whichever goroutine drains the queue, waking
	// the Run caller for shutdown.
	done chan struct{}
}

// NewEngine returns an engine at virtual time zero with an empty event
// queue.
func NewEngine() *Engine {
	return &Engine{done: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetTrace installs fn as the trace sink. A nil fn disables tracing.
func (e *Engine) SetTrace(fn TraceFunc) { e.trace = fn }

func (e *Engine) emit(kind, proc, detail string) {
	if e.trace != nil {
		e.trace(TraceEvent{T: e.now, Kind: kind, Proc: proc, Detail: detail})
	}
}

// newEvent takes an event off the free list (or allocates one the first
// time), stamps it with the clamped time and the next sequence number,
// and tags it. The caller fills the payload fields and pushes it.
func (e *Engine) newEvent(t Time, kind evKind) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = new(event)
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev.t, ev.seq, ev.kind = t, e.seq, kind
	return ev
}

// recycle clears an event's payload (so the free list retains neither
// processes nor closures) and returns it to the free list.
func (e *Engine) recycle(ev *event) {
	ev.p, ev.name, ev.fn, ev.call, ev.arg = nil, "", nil, nil, nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at virtual time t (or now, if t is in the past).
// fn runs in engine context: it must not block, but it may schedule
// further events and unpark processes.
func (e *Engine) At(t Time, name string, fn func()) {
	ev := e.newEvent(t, evFn)
	ev.name, ev.fn = name, fn
	e.queue.push(ev)
}

// AtCall schedules call(arg) at virtual time t, like At but with a plain
// function and an explicit argument instead of a closure: the event
// stores both, so hot paths that would otherwise allocate a closure per
// event (message delivery, timers) schedule allocation-free. A
// pointer-typed arg does not allocate when boxed into the event.
func (e *Engine) AtCall(t Time, name string, call func(arg any), arg any) {
	ev := e.newEvent(t, evCall)
	ev.name, ev.call, ev.arg = name, call, arg
	e.queue.push(ev)
}

// After schedules fn to run d from now.
func (e *Engine) After(d time.Duration, name string, fn func()) {
	e.At(e.now.Add(d), name, fn)
}

// Proc is a simulated process. All methods must be called from the
// process's own goroutine (i.e. from within the function passed to Spawn)
// unless documented otherwise.
type Proc struct {
	name string
	eng  *Engine
	// ch is the single park/resume handoff channel: the engine role
	// arrives with a receive and leaves with a send, in strict
	// alternation.
	ch     chan struct{}
	parked bool
	// reason is why the process parked; why, when set, replaces it
	// with a reason formatted only when read (see ParkFor).
	reason string
	why    fmt.Stringer
	daemon bool
	killed bool
	exited bool
	// Lazily-built trace labels; only materialized when tracing.
	startName  string
	wakeName   string
	unparkName string
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine the process runs on. Safe to call from
// anywhere.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// SetDaemon marks the process as a daemon: it is expected to still be
// blocked when the simulation ends (e.g. a message-routing daemon waiting
// for traffic) and does not trigger deadlock detection.
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

func (p *Proc) label(prefix string, cache *string) string {
	if *cache == "" {
		*cache = prefix + p.name
	}
	return *cache
}

// eventName builds the trace label for an event. Only called while a
// TraceFunc is installed.
func eventName(ev *event) string {
	switch ev.kind {
	case evStart:
		return ev.p.label("start:", &ev.p.startName)
	case evWake:
		return ev.p.label("wake:", &ev.p.wakeName)
	case evUnpark:
		return ev.p.label("unpark:", &ev.p.unparkName)
	default:
		return ev.name
	}
}

// Spawn creates a process named name running fn and schedules it to start
// at the current virtual time. It may be called before Run or from within
// a running process or event.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{name: name, eng: e, ch: make(chan struct{})}
	e.procs = append(e.procs, p)
	go func() {
		<-p.ch
		defer p.finish()
		if p.killed {
			panic(killedPanic{})
		}
		fn(p)
	}()
	ev := e.newEvent(e.now, evStart)
	ev.p = p
	e.queue.push(ev)
	return p
}

// finish runs as the process goroutine unwinds — because the body
// returned, panicked, or was killed during shutdown. Outside shutdown the
// goroutine still holds the engine role, so it keeps dispatching events
// until the role moves to another process or the queue drains.
func (p *Proc) finish() {
	e := p.eng
	if r := recover(); r != nil {
		if _, ok := r.(killedPanic); !ok && e.fatal == nil {
			e.fatal = &PanicError{Proc: p.name, Value: r}
		}
	}
	p.exited = true
	if e.stopping {
		// Shutdown kill: Run is waiting on our channel for the exit
		// handshake; the dispatch loop is already over.
		p.ch <- struct{}{}
		return
	}
	e.emit("exit", p.name, "")
	if e.schedule(nil) == schedDrained {
		e.done <- struct{}{}
	}
}

// schedule dispatches events until the engine role leaves the calling
// goroutine. self is the process whose goroutine is running the loop (nil
// for the Run caller or an exiting process): when the next runnable
// process is self, the loop returns schedSelf and control simply continues
// on this goroutine with no handoff.
func (e *Engine) schedule(self *Proc) schedResult {
	for e.queue.Len() > 0 && e.fatal == nil {
		ev := e.queue.pop()
		e.now = ev.t
		if e.trace != nil {
			e.trace(TraceEvent{T: e.now, Kind: "event", Detail: eventName(ev)})
		}
		switch ev.kind {
		case evFn:
			fn := ev.fn
			e.recycle(ev)
			fn()
		case evCall:
			call, arg := ev.call, ev.arg
			e.recycle(ev)
			call(arg)
		case evStart:
			p := ev.p
			e.recycle(ev)
			if p.exited {
				continue
			}
			e.emit("spawn", p.name, "")
			p.ch <- struct{}{}
			return schedHandedOff
		case evWake:
			p := ev.p
			e.recycle(ev)
			if p.exited {
				continue // stale wake for a dead process: lazy-deleted
			}
			p.parked = false
			if p == self {
				return schedSelf
			}
			p.ch <- struct{}{}
			return schedHandedOff
		case evUnpark:
			p := ev.p
			e.recycle(ev)
			if !p.parked || p.exited {
				continue // the wake was overtaken: lazy-deleted, no-op
			}
			p.parked = false
			if p == self {
				return schedSelf
			}
			p.ch <- struct{}{}
			return schedHandedOff
		}
	}
	return schedDrained
}

// park blocks the calling process until the engine resumes it. The
// parking goroutine itself dispatches the next events (it holds the
// engine role), so a yield costs at most one channel handoff — and none
// at all when the next runnable process is this one. The reason is
// reason, or why.String() when why is set.
func (p *Proc) park(reason string, why fmt.Stringer) {
	if p.killed {
		// Parking from a defer while the shutdown kill unwinds this
		// process: the dispatch loop is over and nothing could ever
		// resume us, so keep unwinding instead of scheduling (which
		// would strand Run's kill handshake).
		panic(killedPanic{})
	}
	e := p.eng
	p.reason, p.why = reason, why
	p.parked = true
	if e.trace != nil {
		e.emit("park", p.name, p.reasonText())
	}
	switch e.schedule(p) {
	case schedSelf:
		// Our own wake was the next event: control never left this
		// goroutine.
	case schedDrained:
		e.done <- struct{}{}
		<-p.ch
	case schedHandedOff:
		<-p.ch
	}
	if p.killed {
		panic(killedPanic{})
	}
	if e.trace != nil {
		e.emit("wake", p.name, p.reasonText())
	}
}

// reasonText is the reason the process last parked for.
func (p *Proc) reasonText() string {
	if p.why != nil {
		return p.why.String()
	}
	return p.reason
}

// Park blocks the process until another event calls Engine.Unpark on it.
// reason is reported in deadlock diagnostics and traces.
func (p *Proc) Park(reason string) { p.park(reason, nil) }

// ParkFor is Park with a reason that is formatted only when something
// reads it: a deadlock report or a trace. reason must describe the wait
// until the process resumes. A pointer reason boxes without allocating,
// so a hot blocking path can park without building a string.
func (p *Proc) ParkFor(reason fmt.Stringer) { p.park("", reason) }

// Sleep advances the process's local time by d, yielding to other
// processes in the meantime. Sleeping for a non-positive duration still
// yields (it schedules a wake at the current time, after already-queued
// events at this timestamp).
func (p *Proc) Sleep(d time.Duration) {
	e := p.eng
	ev := e.newEvent(e.now.Add(d), evWake)
	ev.p = p
	e.queue.push(ev)
	p.park("sleep", nil)
}

// SleepUntil blocks the process until virtual time t (a no-op yield if t
// is not in the future).
func (p *Proc) SleepUntil(t Time) {
	e := p.eng
	ev := e.newEvent(t, evWake)
	ev.p = p
	e.queue.push(ev)
	p.park("sleep-until", nil)
}

// Unpark schedules p to resume at the current virtual time. It is the
// counterpart of Proc.Park and may be called from event handlers or other
// processes. Unparking a process that is not parked is a no-op: the wake
// event is lazily deleted when it reaches the head of the queue.
func (e *Engine) Unpark(p *Proc) {
	ev := e.newEvent(e.now, evUnpark)
	ev.p = p
	e.queue.push(ev)
}

// Run executes events until the queue is empty, then shuts down any
// still-blocked processes. It returns a *DeadlockError if non-daemon
// processes were still blocked, a *PanicError if a process panicked, and
// nil otherwise. Run may be called only once per engine; call Reset to
// reuse the engine for a fresh simulation.
func (e *Engine) Run() error {
	if e.ran {
		return fmt.Errorf("sim: engine already ran (Reset it to run again)")
	}
	e.ran = true
	if e.schedule(nil) == schedHandedOff {
		// The engine role is out among the process goroutines; wait for
		// whichever one drains the queue.
		<-e.done
	}
	var blocked []string
	for _, p := range e.procs {
		if p.parked && !p.exited && !p.daemon {
			blocked = append(blocked, p.name+" ("+p.reasonText()+")")
		}
	}
	sort.Strings(blocked)
	// Kill every process that has not exited, daemon or not, so no
	// goroutines leak: the parked ones, and any whose start event a
	// panic left in the queue, which unwind from their start path.
	e.stopping = true
	for _, p := range e.procs {
		if !p.exited {
			p.killed = true
			p.parked = false
			p.ch <- struct{}{}
			<-p.ch
		}
	}
	if e.fatal != nil {
		return e.fatal
	}
	if len(blocked) > 0 {
		return &DeadlockError{At: e.now, Blocked: blocked}
	}
	return nil
}
