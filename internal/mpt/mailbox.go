package mpt

import (
	"slices"

	"tooleval/internal/sim"
)

// Mailbox is a per-task (or per-daemon) message queue with selective
// receive: a receiver can wait for a specific (src, tag) combination
// while other messages queue up behind. Matching is FIFO within the set
// of messages that satisfy the pattern, mirroring the tools' semantics.
//
// All methods must be called from engine context; the engine's
// one-runnable-at-a-time discipline supplies mutual exclusion.
type Mailbox struct {
	eng     *sim.Engine
	msgs    []*Message
	waiters []*mboxWaiter
	// freeW recycles waiter records across blocking receives, so the
	// selective-receive hot path allocates nothing in steady state.
	freeW []*mboxWaiter
}

type mboxWaiter struct {
	src, tag int
	p        *sim.Proc
	got      *Message
}

// NewMailbox creates an empty mailbox bound to the engine.
func NewMailbox(eng *sim.Engine) *Mailbox {
	return &Mailbox{eng: eng}
}

// Len reports queued (undelivered-to-receiver) messages.
func (m *Mailbox) Len() int { return len(m.msgs) }

func matches(wantSrc, wantTag int, msg *Message) bool {
	if wantSrc != AnySource && wantSrc != msg.Src {
		return false
	}
	if wantTag != AnyTag && wantTag != msg.Tag {
		return false
	}
	return true
}

// Put delivers msg to the mailbox, waking the longest-waiting matching
// receiver if there is one. It must be called from engine context (an
// event handler or a running process).
func (m *Mailbox) Put(msg *Message) {
	for i, w := range m.waiters {
		if matches(w.src, w.tag, msg) {
			w.got = msg
			m.waiters = slices.Delete(m.waiters, i, i+1)
			m.eng.Unpark(w.p)
			return
		}
	}
	m.msgs = append(m.msgs, msg)
}

// Get blocks the calling process until a message matching (src, tag) is
// available and returns it.
func (m *Mailbox) Get(p *sim.Proc, src, tag int) *Message {
	for i, msg := range m.msgs {
		if matches(src, tag, msg) {
			m.msgs = slices.Delete(m.msgs, i, i+1)
			return msg
		}
	}
	w := m.newWaiter(p, src, tag)
	m.waiters = append(m.waiters, w)
	p.ParkFor(w)
	got := w.got
	*w = mboxWaiter{}
	m.freeW = append(m.freeW, w)
	return got
}

// newWaiter takes a waiter record off the free list or allocates one.
func (m *Mailbox) newWaiter(p *sim.Proc, src, tag int) *mboxWaiter {
	var w *mboxWaiter
	if n := len(m.freeW); n > 0 {
		w = m.freeW[n-1]
		m.freeW[n-1] = nil
		m.freeW = m.freeW[:n-1]
	} else {
		w = new(mboxWaiter)
	}
	*w = mboxWaiter{src: src, tag: tag, p: p}
	return w
}

// String is the park reason of a blocked receive. The waiter is the
// reason (Proc.ParkFor), so the string is built only when a deadlock
// report or a trace reads it, never on the receive path.
func (w *mboxWaiter) String() string {
	return "recv src=" + itoa(w.src) + " tag=" + itoa(w.tag)
}

// itoa is a tiny strconv.Itoa for the two wildcard-friendly values we
// format in park reasons (avoids fmt on the hot path).
func itoa(v int) string {
	switch v {
	case AnySource:
		return "any"
	}
	if v >= 0 && v < 10 {
		return string(rune('0' + v))
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if i == len(buf) {
		i--
		buf[i] = '0'
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
