package pvm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tooleval/internal/mpt"
	"tooleval/internal/sim"
)

// daemon is one pvmd: a single-threaded select-loop process that routes
// task messages, runs the acknowledged fragment protocol towards peer
// daemons, and reassembles incoming messages for local delivery. Being
// single-threaded is load-bearing: while the daemon is fragmenting an
// outgoing message or generating acknowledgements it is not doing the
// other, which is part of PVM's cost under bidirectional traffic.
type daemon struct {
	t       *Tool
	station int
	box     *mpt.Mailbox
	proc    *sim.Proc

	// outgoing streams, FIFO; streams[0] is active (store-and-forward:
	// one message at a time towards the wire).
	streams []*outStream
	// reassembly state by msgid.
	assembling map[uint32]*inStream
	// delivered msgids (to drop retransmitted duplicates of completed
	// messages).
	delivered map[uint32]bool

	retransmits int64
	acks        int64
	dropped     int64
	badFrags    int64 // malformed fragment frames dropped on arrival
}

type outStream struct {
	msgid      uint32
	srcTask    int
	dstTask    int
	dstStation int
	tag        int
	payload    []byte
	nfrags     int
	nextFrag   int
	acked      []bool
	ackedCount int
	inFlight   int
	retries    []int
	dead       bool
}

// inStream reassembles one incoming message in place: fragment i lands
// at i×FragBytes of one buffer allocated at the first arrival, and the
// final fragment fixes the message length.
type inStream struct {
	hdr   fragHeader // the stream's identity: the first fragment's header, frag zeroed
	got   []bool
	buf   []byte
	size  int
	count int
}

// fragHeader is the decoded envelope of one daemon-to-daemon fragment.
type fragHeader struct {
	msgid            uint32
	frag, nfrags     int
	srcTask, dstTask int
	tag              int
}

// fragHeaderLen is the size of a fragment envelope before its chunk.
const fragHeaderLen = 25

// decodeFrag parses a fragment frame and checks it is well formed on
// its own: the chunk lies inside the frame, frag < nfrags, and every
// chunk but the last is exactly fragBytes long (the last at most that).
// Anything else could overwrite a neighbouring fragment on reassembly.
func decodeFrag(data []byte, fragBytes int) (fragHeader, []byte, error) {
	if len(data) < fragHeaderLen || data[0] != kindFrag {
		return fragHeader{}, nil, fmt.Errorf("%w: %d-byte frame", errBadFrag, len(data))
	}
	h := fragHeader{
		msgid:   binary.BigEndian.Uint32(data[1:]),
		frag:    int(binary.BigEndian.Uint16(data[5:])),
		nfrags:  int(binary.BigEndian.Uint16(data[7:])),
		srcTask: int(binary.BigEndian.Uint32(data[9:])),
		dstTask: int(binary.BigEndian.Uint32(data[13:])),
		tag:     bitsTag(binary.BigEndian.Uint32(data[17:])),
	}
	paylen := uint64(binary.BigEndian.Uint32(data[21:]))
	if paylen > uint64(len(data)-fragHeaderLen) {
		return h, nil, fmt.Errorf("%w: chunk of %d bytes overruns a %d-byte frame", errBadFrag, paylen, len(data))
	}
	chunk := data[fragHeaderLen : fragHeaderLen+int(paylen)]
	if h.frag >= h.nfrags {
		return h, nil, fmt.Errorf("%w: fragment %d of %d", errBadFrag, h.frag, h.nfrags)
	}
	if last := h.frag == h.nfrags-1; len(chunk) > fragBytes || !last && len(chunk) != fragBytes {
		return h, nil, fmt.Errorf("%w: fragment %d of %d carries %d bytes, fragments are %d", errBadFrag, h.frag, h.nfrags, len(chunk), fragBytes)
	}
	return h, chunk, nil
}

var errBadFrag = errors.New("pvm: malformed fragment")

// newInStream starts reassembly at fragment h. The buffer has room for
// nfrags full fragments, unless h is the final fragment — always so for a
// one-fragment message — whose length fixes the exact size.
func newInStream(h fragHeader, chunk []byte, fragBytes int) *inStream {
	size := h.nfrags * fragBytes
	if h.frag == h.nfrags-1 {
		size = h.frag*fragBytes + len(chunk)
	}
	h.frag = 0
	return &inStream{hdr: h, got: make([]bool, h.nfrags), buf: make([]byte, size)}
}

// joins reports whether fragment h belongs to this stream: it must agree
// with the stream on everything but its fragment number.
func (st *inStream) joins(h fragHeader) bool {
	h.frag = 0
	return h == st.hdr
}

// add copies a fragment into its slot; decodeFrag and joins must have
// accepted it. It reports false for a duplicate.
func (st *inStream) add(frag int, chunk []byte, fragBytes int) bool {
	if st.got[frag] {
		return false
	}
	st.got[frag] = true
	copy(st.buf[frag*fragBytes:], chunk)
	if frag == st.hdr.nfrags-1 {
		st.size = frag*fragBytes + len(chunk)
	}
	st.count++
	return true
}

// complete reports whether every fragment has arrived.
func (st *inStream) complete() bool { return st.count == st.hdr.nfrags }

// payload is the reassembled message; valid once complete.
func (st *inStream) payload() []byte { return st.buf[:st.size] }

func newDaemon(t *Tool, station int) *daemon {
	return &daemon{
		t:          t,
		station:    station,
		box:        mpt.NewMailbox(t.env.Eng),
		assembling: make(map[uint32]*inStream),
		delivered:  make(map[uint32]bool),
	}
}

// run is the daemon main loop.
func (d *daemon) run(p *sim.Proc) {
	p.SetDaemon(true)
	d.proc = p
	for {
		m := d.box.Get(p, mpt.AnySource, mpt.AnyTag)
		if m == nil {
			return // engine shutting down
		}
		if len(m.Data) == 0 {
			continue
		}
		switch m.Data[0] {
		case kindRoute:
			d.handleRoute(m)
		case kindMcast:
			d.handleMcast(m)
		case kindFrag:
			d.handleFrag(m)
		case kindAck:
			d.handleAck(m)
		case kindTimeout:
			d.handleTimeout(m)
		}
		d.pump()
	}
}

func (d *daemon) env() *mpt.Env { return d.t.env }

func (d *daemon) handleRoute(m *mpt.Message) {
	par := d.t.par
	data := m.Data
	srcTask := int(binary.BigEndian.Uint32(data[1:]))
	dstTask := int(binary.BigEndian.Uint32(data[5:]))
	tag := bitsTag(binary.BigEndian.Uint32(data[9:]))
	paylen := int(binary.BigEndian.Uint32(data[13:]))
	payload := data[routeHeaderLen : routeHeaderLen+paylen]
	d.proc.Sleep(d.env().Cost(par.DaemonDispatchOps))
	if dstTask == d.station {
		d.deliverLocal(srcTask, dstTask, tag, payload)
		return
	}
	d.enqueue(srcTask, dstTask, tag, payload)
}

func (d *daemon) handleMcast(m *mpt.Message) {
	par := d.t.par
	data := m.Data
	srcTask := int(binary.BigEndian.Uint32(data[1:]))
	tag := bitsTag(binary.BigEndian.Uint32(data[5:]))
	ndst := int(binary.BigEndian.Uint16(data[9:]))
	dsts := make([]int, ndst)
	off := 11
	for i := range dsts {
		dsts[i] = int(binary.BigEndian.Uint16(data[off:]))
		off += 2
	}
	paylen := int(binary.BigEndian.Uint32(data[off:]))
	payload := data[off+4 : off+4+paylen]
	d.proc.Sleep(d.env().Cost(par.DaemonDispatchOps))
	for _, dst := range dsts {
		if dst == d.station {
			d.deliverLocal(srcTask, dst, tag, payload)
			continue
		}
		d.enqueue(srcTask, dst, tag, payload)
	}
}

// deliverLocal hands a fully assembled message to a task on this station
// over the loopback channel.
func (d *daemon) deliverLocal(srcTask, dstTask, tag int, payload []byte) {
	env, par := d.env(), d.t.par
	arr, err := env.Loop.Transmit(d.proc.Now(), d.station, d.station, len(payload)+par.HeaderBytes)
	if err != nil {
		d.dropped++
		return
	}
	env.DeliverAt(arr, env.Boxes[dstTask], &mpt.Message{Src: srcTask, Tag: tag, Data: payload})
}

func (d *daemon) enqueue(srcTask, dstTask, tag int, payload []byte) {
	par := d.t.par
	d.t.nextMsg++
	nfrags := (len(payload) + par.FragBytes - 1) / par.FragBytes
	if nfrags == 0 {
		nfrags = 1
	}
	d.streams = append(d.streams, &outStream{
		msgid:      d.t.nextMsg,
		srcTask:    srcTask,
		dstTask:    dstTask,
		dstStation: dstTask, // one task per station
		tag:        tag,
		payload:    payload,
		nfrags:     nfrags,
		acked:      make([]bool, nfrags),
		retries:    make([]int, nfrags),
	})
}

// pump advances the active outgoing stream: send fragments while the
// window allows, then wait for acks (handled by the main loop).
func (d *daemon) pump() {
	par := d.t.par
	for len(d.streams) > 0 {
		s := d.streams[0]
		if s.dead || s.ackedCount == s.nfrags {
			copy(d.streams, d.streams[1:])
			d.streams[len(d.streams)-1] = nil
			d.streams = d.streams[:len(d.streams)-1]
			continue
		}
		for s.inFlight < par.Window && s.nextFrag < s.nfrags {
			d.sendFrag(s, s.nextFrag)
			s.nextFrag++
			s.inFlight++
		}
		return // wait for acks/timeouts before sending more
	}
}

func (d *daemon) sendFrag(s *outStream, frag int) {
	env, par := d.env(), d.t.par
	lo := frag * par.FragBytes
	hi := lo + par.FragBytes
	if hi > len(s.payload) {
		hi = len(s.payload)
	}
	var chunk []byte
	if lo < hi {
		chunk = s.payload[lo:hi]
	}
	d.proc.Sleep(env.Cost(par.FragSendOps) + par.FragSchedLatency)
	wire := encodeFrag(s.msgid, frag, s.nfrags, s.srcTask, s.dstTask, s.tag, chunk)
	arr, err := env.Net.Transmit(d.proc.Now(), d.station, s.dstStation, len(wire))
	if err == nil {
		peer := d.t.daemons[s.dstStation]
		env.DeliverAt(arr, peer.box, &mpt.Message{Src: d.station, Tag: kindFrag, Data: wire})
	}
	// Arm the retransmission timer whether or not the transmit succeeded;
	// the timeout path enforces MaxRetries and eventually drops. Like the
	// real pvmd, the timeout backs off exponentially so congestion-induced
	// delays (retransmit storms on a loaded Ethernet) eventually drain
	// rather than cascading into a dropped message.
	backoff := s.retries[frag]
	if backoff > 6 {
		backoff = 6
	}
	rto := par.RTO << uint(backoff)
	msgid, fragNo := s.msgid, frag
	env.Eng.After(rto, "pvmd-rto", func() {
		d.box.Put(&mpt.Message{Src: d.station, Tag: kindTimeout, Data: encodeTimeout(msgid, fragNo)})
	})
}

func (d *daemon) handleFrag(m *mpt.Message) {
	env, par := d.env(), d.t.par
	h, chunk, err := decodeFrag(m.Data, par.FragBytes)
	st := d.assembling[h.msgid]
	if err == nil && (h.dstTask != d.station || st != nil && !st.joins(h)) {
		err = errBadFrag
	}
	if err != nil {
		// Dropped unacknowledged: nothing in a malformed frame can be
		// trusted to name the fragment an ack would release.
		d.badFrags++
		return
	}

	// The daemon acknowledges every fragment — including duplicates, whose
	// original ack may have been what got lost.
	d.proc.Sleep(env.Cost(par.FragRecvOps))
	ack := encodeAck(h.msgid, h.frag)
	arr, err := env.Net.Transmit(d.proc.Now(), d.station, m.Src, len(ack)+par.AckBytes)
	if err == nil {
		peer := d.t.daemons[m.Src]
		env.DeliverAt(arr, peer.box, &mpt.Message{Src: d.station, Tag: kindAck, Data: ack})
		d.acks++
	}
	if d.delivered[h.msgid] {
		return // duplicate of a completed message
	}
	if st == nil {
		st = newInStream(h, chunk, par.FragBytes)
		d.assembling[h.msgid] = st
	}
	if !st.add(h.frag, chunk, par.FragBytes) || !st.complete() {
		return
	}
	delete(d.assembling, h.msgid)
	d.delivered[h.msgid] = true
	d.proc.Sleep(env.Cost(par.DaemonDispatchOps))
	d.deliverLocal(st.hdr.srcTask, st.hdr.dstTask, st.hdr.tag, st.payload())
}

func (d *daemon) handleAck(m *mpt.Message) {
	msgid := binary.BigEndian.Uint32(m.Data[1:])
	frag := int(binary.BigEndian.Uint16(m.Data[5:]))
	s := d.findStream(msgid)
	if s == nil || frag >= s.nfrags || s.acked[frag] {
		return
	}
	s.acked[frag] = true
	s.ackedCount++
	if s.inFlight > 0 {
		s.inFlight--
	}
}

func (d *daemon) handleTimeout(m *mpt.Message) {
	par := d.t.par
	msgid := binary.BigEndian.Uint32(m.Data[1:])
	frag := int(binary.BigEndian.Uint16(m.Data[5:]))
	s := d.findStream(msgid)
	if s == nil || s.dead || frag >= s.nfrags || s.acked[frag] {
		return
	}
	if s.retries[frag] >= par.MaxRetries {
		// Give up on the whole message — PVM's famously thin error story.
		s.dead = true
		d.dropped++
		return
	}
	s.retries[frag]++
	d.retransmits++
	d.sendFrag(s, frag)
}

func (d *daemon) findStream(msgid uint32) *outStream {
	for _, s := range d.streams {
		if s.msgid == msgid {
			return s
		}
	}
	return nil
}

// String aids debugging.
func (d *daemon) String() string {
	return fmt.Sprintf("pvmd%d{out=%d, assembling=%d}", d.station, len(d.streams), len(d.assembling))
}
