package server

import "sync"

// logEvent is one SSE frame as recorded: a monotonically increasing id
// (1-based, per job), the event name, and the pre-marshalled JSON
// payload. Encoding once at append time means every subscriber — live
// or resuming — sends byte-identical frames.
type logEvent struct {
	id   int64
	name string
	data []byte
}

// eventLog is a job's bounded replay buffer: every lifecycle event the
// sweep emits is appended here, and SSE subscribers drain it at their
// own pace. The log is the decoupling point that makes streams
// resumable — a client that vanishes loses its connection, not its
// place; reconnecting with Last-Event-ID replays everything after that
// id and then continues live.
//
// The buffer is bounded (cap events): a subscriber that falls more
// than cap events behind finds the oldest entries evicted and is told
// how many it missed (a "gap" event on the wire) instead of stalling
// the sweep. That bound is also why append never blocks — workers
// publish and move on, so a slow reader can no longer hold up its own
// job's simulation goroutines.
type eventLog struct {
	mu      sync.Mutex
	buf     []logEvent
	base    int64 // id of buf[0]; ids below base are evicted
	next    int64 // id the next appended event receives
	cap     int
	closed  bool          // no further events: the job finished
	updated chan struct{} // closed and replaced on every append/close
}

func newEventLog(capacity int) *eventLog {
	if capacity <= 0 {
		capacity = 1
	}
	return &eventLog{base: 1, next: 1, cap: capacity, updated: make(chan struct{})}
}

// append records one event, evicting the oldest entry when the buffer
// is full, and wakes every waiting subscriber.
func (l *eventLog) append(name string, data []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.buf = append(l.buf, logEvent{id: l.next, name: name, data: data})
	l.next++
	if len(l.buf) > l.cap {
		drop := len(l.buf) - l.cap
		l.buf = append(l.buf[:0], l.buf[drop:]...)
		l.base += int64(drop)
	}
	close(l.updated)
	l.updated = make(chan struct{})
}

// close marks the log complete and wakes subscribers so they can
// drain and hang up. The updated channel is left closed — there is no
// next append to chain to, and a permanently-closed channel means any
// late waiter wakes immediately instead of sleeping forever.
func (l *eventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.updated)
}

// since returns a copy of every retained event with id > after, how
// many requested events were already evicted (the subscriber's gap),
// whether the log is complete, and the channel that closes on the next
// append. The contract: replay events, then — if done and nothing new
// arrived — hang up, else wait on updated.
func (l *eventLog) since(after int64) (events []logEvent, missed int64, done bool, updated <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after < l.base-1 {
		missed = l.base - 1 - after
		after = l.base - 1
	}
	if n := int(after - l.base + 1); n < len(l.buf) {
		events = make([]logEvent, len(l.buf)-n)
		copy(events, l.buf[n:])
	}
	return events, missed, l.closed, l.updated
}
