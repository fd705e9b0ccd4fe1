package sim

// WaitQ is a FIFO queue of parked processes, the building block for
// condition-variable-style blocking (mailboxes, barriers, resource
// queues). All methods must be called from engine context (a running
// process or an event handler); the engine's one-runnable-at-a-time
// discipline makes external locking unnecessary.
type WaitQ struct {
	ps []*Proc
}

// Len reports how many processes are waiting.
func (q *WaitQ) Len() int { return len(q.ps) }

// Wait parks the calling process on the queue until another process or
// event wakes it via WakeOne or WakeAll.
func (q *WaitQ) Wait(p *Proc, reason string) {
	q.ps = append(q.ps, p)
	p.park(reason, nil)
}

// WakeOne schedules the longest-waiting process (if any) to resume at the
// current virtual time and removes it from the queue.
func (q *WaitQ) WakeOne() {
	if len(q.ps) == 0 {
		return
	}
	p := q.ps[0]
	copy(q.ps, q.ps[1:])
	q.ps[len(q.ps)-1] = nil
	q.ps = q.ps[:len(q.ps)-1]
	p.eng.Unpark(p)
}

// WakeAll schedules every waiting process to resume, in FIFO order, and
// empties the queue.
func (q *WaitQ) WakeAll() {
	for _, p := range q.ps {
		p.eng.Unpark(p)
	}
	for i := range q.ps {
		q.ps[i] = nil
	}
	q.ps = q.ps[:0]
}
