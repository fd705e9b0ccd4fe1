// Package faults is the deterministic fault-injection seam behind the
// resilience suite: seeded, repeatable decisions about when an IO or
// tier operation should fail, tear, or stall, and decorators that
// apply those decisions to the two seams the result pipeline already
// exposes — the store's file operations (store.Open's WithFile wrapper)
// and the runner.Tier interface (Cache.SetTier).
//
// Everything here is deterministic given a seed and a call sequence:
// the chaos tests inject a seeded schedule mid-sweep and assert the
// served reports are byte-identical to a fault-free run. That property
// belongs to the layers under test (a tier miss re-simulates, a store
// write error degrades to non-persistence — neither may change a
// result); this package only makes the degraded paths reachable on
// demand and repeatable under -race.
package faults

import (
	crand "crypto/rand"
	"errors"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the error every injected failure wraps; match it with
// errors.Is to tell an injected fault from a real one in tests.
var ErrInjected = errors.New("faults: injected fault")

// Op names one interceptable operation.
type Op int

const (
	OpWrite Op = iota
	OpSync
	OpTruncate
	OpSeek
	OpRead
	OpClose
	OpLookup
	OpFill
	numOps
)

var opNames = [numOps]string{"write", "sync", "truncate", "seek", "read", "close", "lookup", "fill"}

func (o Op) String() string {
	if o < 0 || o >= numOps {
		return "op(" + strconv.Itoa(int(o)) + ")"
	}
	return opNames[o]
}

// Decision is one injector verdict for one operation.
type Decision struct {
	// Fail makes the operation return an injected error.
	Fail bool
	// Short makes a write persist only a prefix of its payload before
	// failing — the torn-tail case a crash mid-append produces. Only
	// meaningful for OpWrite, and implies Fail.
	Short bool
	// Latency is added before the operation (injected slowness). It
	// never changes the operation's outcome, only its wall-clock.
	Latency time.Duration
}

// Injector decides the fate of each operation. Implementations must be
// safe for concurrent use; n is the payload size for writes (0
// otherwise), so a short-write decision can pick a tear point.
type Injector interface {
	Decide(op Op, n int) Decision
}

// rng is splitmix64: tiny, well-mixed, and stable across Go releases —
// the seeds logged by a failing chaos run reproduce forever.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Plan parameterizes a seeded Schedule: per-operation fault rates, all
// probabilities in [0, 1]. The zero value injects nothing.
type Plan struct {
	// WriteError is the probability a write fails without persisting
	// anything.
	WriteError float64
	// ShortWrite is the probability a write persists only a seeded
	// prefix of its payload and then fails (a torn record).
	ShortWrite float64
	// SyncError is the probability an fsync fails.
	SyncError float64
	// TruncateError is the probability a truncate fails.
	TruncateError float64
	// LookupMiss is the probability a tier lookup is forced to report a
	// miss (error injection on the read path: the cell re-simulates).
	LookupMiss float64
	// FillDrop is the probability a tier fill is silently dropped
	// (error injection on the write path: the cell is not persisted).
	FillDrop float64
	// Latency, when non-zero, is added to an operation with probability
	// LatencyRate.
	Latency     time.Duration
	LatencyRate float64
}

// Schedule is a seeded, concurrency-safe Injector drawing every
// decision from one deterministic stream. Decisions depend on the seed
// and on the order Decide is called in — concurrent callers interleave
// nondeterministically, which is exactly the point: the layers under
// test must hold their contracts for every interleaving, and the seed
// still pins the total number and kind of faults closely enough to
// reproduce failures.
type Schedule struct {
	mu   sync.Mutex
	rng  rng
	plan Plan

	injected atomic.Int64
}

// NewSchedule returns a Schedule drawing from plan under seed.
func NewSchedule(seed uint64, plan Plan) *Schedule {
	return &Schedule{rng: rng{state: seed}, plan: plan}
}

// Decide implements Injector.
func (s *Schedule) Decide(op Op, n int) Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	var d Decision
	p := &s.plan
	if p.Latency > 0 && p.LatencyRate > 0 && s.rng.float() < p.LatencyRate {
		d.Latency = p.Latency
	}
	switch op {
	case OpWrite:
		if p.ShortWrite > 0 && s.rng.float() < p.ShortWrite {
			d.Fail, d.Short = true, true
		} else if p.WriteError > 0 && s.rng.float() < p.WriteError {
			d.Fail = true
		}
	case OpSync:
		d.Fail = p.SyncError > 0 && s.rng.float() < p.SyncError
	case OpTruncate:
		d.Fail = p.TruncateError > 0 && s.rng.float() < p.TruncateError
	case OpLookup:
		d.Fail = p.LookupMiss > 0 && s.rng.float() < p.LookupMiss
	case OpFill:
		d.Fail = p.FillDrop > 0 && s.rng.float() < p.FillDrop
	}
	if d.Fail {
		s.injected.Add(1)
	}
	return d
}

// TearPoint picks a deterministic prefix length in [0, n) for a short
// write of n bytes.
func (s *Schedule) TearPoint(n int) int {
	if n <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.rng.next() % uint64(n))
}

// Injected reports how many decisions were faults. Chaos tests assert
// Injected > 0 so a mis-wired seam cannot silently pass by never
// faulting.
func (s *Schedule) Injected() int64 { return s.injected.Load() }

// Switch is the manual Injector: while On, every operation in its
// scope fails outright; while off, everything passes. It is the tool
// for scripted drills — latch a circuit open, watch it probe closed —
// where a probabilistic schedule would be noise.
type Switch struct {
	on       atomic.Bool
	injected atomic.Int64
}

// NewSwitch returns a Switch, initially off.
func NewSwitch() *Switch { return &Switch{} }

// Set turns fault injection on or off.
func (s *Switch) Set(on bool) { s.on.Store(on) }

// Injected reports how many operations were failed.
func (s *Switch) Injected() int64 { return s.injected.Load() }

// Decide implements Injector.
func (s *Switch) Decide(Op, int) Decision {
	if !s.on.Load() {
		return Decision{}
	}
	s.injected.Add(1)
	return Decision{Fail: true}
}

// PickSeed resolves the seed a chaos test should run under: a fixed
// seed in -short mode (CI determinism), else the named environment
// variable if set (reproducing a logged failure), else a value drawn
// from the OS entropy the caller must log. The second return reports
// whether the seed was fixed/reproduced (true) or fresh (false).
func PickSeed(envVar string, short bool) (uint64, bool) {
	if short {
		return 1, true
	}
	if v := os.Getenv(envVar); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			return n, true
		}
	}
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano()), false
	}
	var n uint64
	for _, x := range b {
		n = n<<8 | uint64(x)
	}
	return n, false
}
