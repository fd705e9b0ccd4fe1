package server

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
)

// eventLogModel is the sequential specification of eventLog: every
// event ever appended, the retention bound, and whether the log is
// closed.
type eventLogModel struct {
	all    []logEvent
	cap    int
	closed bool
}

func (m *eventLogModel) append(name string, data []byte) {
	if m.closed {
		return
	}
	m.all = append(m.all, logEvent{id: int64(len(m.all)) + 1, name: name, data: data})
}

// since is what eventLog.since must answer: the retained events after
// after, and how many requested ids were already evicted.
func (m *eventLogModel) since(after int64) (events []logEvent, missed int64) {
	base := max(int64(len(m.all)-m.cap), 0) // ids <= base are evicted
	if after < base {
		missed = base - after
		after = base
	}
	if after < int64(len(m.all)) {
		events = m.all[after:]
	}
	return events, missed
}

// TestEventLogModel drives eventLog and its sequential model with one
// seeded random mix of append, since and close, and checks each answer:
// ids run contiguously from 1, missed + len(events) accounts for every
// id in (after, next), and no append lands after close. -short uses a
// fixed seed; otherwise the logged seed reproduces a failure via
// TOOLEVAL_CHAOS_SEED.
func TestEventLogModel(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	for round := range 50 {
		capacity := 1 + rng.IntN(16)
		l := newEventLog(capacity)
		m := &eventLogModel{cap: capacity}
		for op := range 200 {
			switch r := rng.IntN(1000); {
			case r < 600:
				name := fmt.Sprintf("e%d", op)
				data := []byte(fmt.Sprintf(`{"op":%d}`, op))
				l.append(name, data)
				m.append(name, data)
			case r < 995:
				next := int64(len(m.all)) + 1
				after := rng.Int64N(next + 2)
				events, missed, done, _ := l.since(after)
				want, wantMissed := m.since(after)
				where := fmt.Sprintf("round %d op %d: since(%d) with cap %d, next %d", round, op, after, capacity, next)
				if done != m.closed {
					t.Fatalf("%s: done = %v, want %v", where, done, m.closed)
				}
				if missed != wantMissed || len(events) != len(want) {
					t.Fatalf("%s: missed %d + %d events, want %d + %d", where, missed, len(events), wantMissed, len(want))
				}
				if after < next && missed+int64(len(events)) != next-1-after {
					t.Fatalf("%s: missed %d + %d events do not cover (%d, %d)", where, missed, len(events), after, next)
				}
				for i, ev := range events {
					if id := after + missed + int64(i) + 1; ev.id != id {
						t.Fatalf("%s: event %d has id %d, want %d", where, i, ev.id, id)
					}
					if ev.id != want[i].id || ev.name != want[i].name || !bytes.Equal(ev.data, want[i].data) {
						t.Fatalf("%s: event %d = (%d %s %s), want (%d %s %s)",
							where, i, ev.id, ev.name, ev.data, want[i].id, want[i].name, want[i].data)
					}
				}
			default:
				l.close()
				m.closed = true
			}
		}
	}
}

// BenchmarkEventLogAppendFull measures append into a log already at
// its bound, the steady state of every job that emits more events than
// its replay buffer holds: each append evicts the oldest entry.
func BenchmarkEventLogAppendFull(b *testing.B) {
	const capacity = 4096
	l := newEventLog(capacity)
	data := []byte(`{"index":0}`)
	for range capacity {
		l.append("cell", data)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		l.append("cell", data)
	}
}
