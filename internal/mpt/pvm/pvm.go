// Package pvm models PVM 3.x message passing as the paper's test-beds ran
// it: every user message is XDR-encoded by the sending task (a real
// encode pass the simulation performs and charges for), handed to the
// local pvmd daemon over a loopback channel, forwarded daemon-to-daemon
// as acknowledged UDP-style fragments with retransmission on timeout, and
// finally delivered to the destination task through its local daemon.
//
// The daemon route is PVM's defining cost: two extra intra-host copies,
// a user-level store-and-forward hop at each end, and a windowed
// stop-and-wait fragment protocol whose acknowledgements are generated by
// the (single-threaded) remote daemon. Under contention — the ring
// benchmark on shared Ethernet — delayed fragments trip the
// retransmission timer and the duplicates load the bus further, which is
// how the paper's ring inversion (Express beating PVM despite losing
// send/receive) is reproduced mechanically.
//
// Primitive name mapping (Table 1): pvm_send / pvm_recv, pvm_mcast
// (daemon fan-out), ring via send/recv, global operations **not
// available** (GlobalSum* returns mpt.ErrNotSupported, matching Table 1).
package pvm

import (
	"encoding/binary"
	"fmt"
	"time"

	"tooleval/internal/mpt"
	"tooleval/internal/sim"
)

// Params are PVM's software cost constants (host operations) and daemon
// protocol parameters.
type Params struct {
	// PackOpsPerByte / UnpackOpsPerByte are the XDR encode/decode passes
	// the tasks perform; PackFixedOps / UnpackFixedOps their call
	// overhead.
	PackOpsPerByte   float64
	UnpackOpsPerByte float64
	PackFixedOps     float64
	UnpackFixedOps   float64
	// TaskSendOps is pvm_send's dispatch path after packing.
	TaskSendOps float64
	// DaemonDispatchOps is the pvmd work to route one message
	// (classification, header parse, table lookup).
	DaemonDispatchOps float64
	// FragBytes is the daemon-to-daemon UDP fragment payload.
	FragBytes int
	// FragSendOps / FragRecvOps are per-fragment daemon CPU.
	FragSendOps float64
	FragRecvOps float64
	// FragSchedLatency is the fixed (CPU-independent) delay per fragment
	// send: the daemon's select-loop scheduling quantum. Table 3 shows
	// PVM's software cost barely improving from the 33 MHz ELC to the
	// 40 MHz IPX, which points at a latency floor of this kind.
	FragSchedLatency time.Duration
	// Window is how many fragments may be unacknowledged.
	Window int
	// RTO is the retransmission timeout; MaxRetries bounds retransmits
	// before the daemon drops the message.
	RTO        time.Duration
	MaxRetries int
	// HeaderBytes / AckBytes are the wire sizes of the daemon protocol
	// envelope and acknowledgement.
	HeaderBytes int
	AckBytes    int
	// RouteDirect enables the PvmRouteDirect ablation: tasks talk
	// directly over stream connections (still paying XDR), bypassing the
	// daemons.
	RouteDirect bool
}

// DefaultParams holds the calibrated constants (TestTable3AgainstPaper
// in internal/bench checks their fit against Table 3).
func DefaultParams() Params {
	return Params{
		PackOpsPerByte:    1.30,
		UnpackOpsPerByte:  1.30,
		PackFixedOps:      6000,
		UnpackFixedOps:    5000,
		TaskSendOps:       4500,
		DaemonDispatchOps: 8000,
		FragBytes:         4080,
		FragSendOps:       2200,
		FragRecvOps:       2600,
		FragSchedLatency:  550 * time.Microsecond,
		Window:            2,
		RTO:               12 * time.Millisecond,
		MaxRetries:        8,
		HeaderBytes:       28,
		AckBytes:          32,
	}
}

// Envelope kinds of the daemon protocol.
const (
	kindRoute   = 1 // task -> local daemon: please deliver
	kindFrag    = 2 // daemon -> daemon: one fragment
	kindAck     = 3 // daemon -> daemon: fragment acknowledged
	kindMcast   = 4 // task -> local daemon: fan out to many
	kindTimeout = 5 // synthetic: retransmission timer fired
)

// Tool implements mpt.Tool.
type Tool struct {
	env     *mpt.Env
	par     Params
	daemons []*daemon
	nextMsg uint32
	stats   mpt.Stats
}

var _ mpt.Tool = (*Tool)(nil)

// New builds a PVM instance with default parameters, spawning one pvmd
// daemon process per station.
func New(env *mpt.Env) (mpt.Tool, error) { return NewWithParams(env, DefaultParams()) }

// NewWithParams builds a PVM instance with explicit parameters.
func NewWithParams(env *mpt.Env, par Params) (*Tool, error) {
	if par.FragBytes <= 0 {
		return nil, fmt.Errorf("pvm: FragBytes must be positive, got %d", par.FragBytes)
	}
	if par.Window < 1 {
		return nil, fmt.Errorf("pvm: Window must be >= 1, got %d", par.Window)
	}
	t := &Tool{env: env, par: par}
	if !par.RouteDirect {
		t.daemons = make([]*daemon, env.N)
		for s := 0; s < env.N; s++ {
			d := newDaemon(t, s)
			t.daemons[s] = d
			proc := env.Eng.Spawn(fmt.Sprintf("pvmd%d", s), d.run)
			_ = proc
		}
	}
	return t, nil
}

// Name implements mpt.Tool.
func (t *Tool) Name() string { return "pvm" }

// Stats returns tool-level counters, aggregated across the daemons.
func (t *Tool) Stats() mpt.Stats {
	s := t.stats
	for _, d := range t.daemons {
		s.Retransmits += d.retransmits
		s.Acks += d.acks
		s.DroppedMsgs += d.dropped
	}
	return s
}

// NewComm implements mpt.Tool.
func (t *Tool) NewComm(p *sim.Proc, rank int) mpt.Comm {
	return &comm{t: t, p: p, rank: rank}
}

type comm struct {
	t    *Tool
	p    *sim.Proc
	rank int
}

var _ mpt.Comm = (*comm)(nil)

func (c *comm) Rank() int { return c.rank }
func (c *comm) Size() int { return c.t.env.N }

// Send implements pvm_send: XDR-pack, then hand the message to the local
// pvmd (or stream it directly under the RouteDirect ablation). The call
// is asynchronous: it returns once the daemon has the data.
func (c *comm) Send(dst, tag int, data []byte) error {
	env, par := c.t.env, c.t.par
	if dst < 0 || dst >= env.N {
		return fmt.Errorf("pvm_send: bad destination %d", dst)
	}
	c.t.stats.Sends++
	c.t.stats.BytesSent += int64(len(data))
	sentAt := c.p.Now()
	c.p.Sleep(env.Cost(par.PackFixedOps + par.PackOpsPerByte*float64(len(data))))
	// The XDR pass is this send's one copy of data: under daemon routing
	// it lands behind the route envelope in the buffer the daemon gets.
	xlen := mpt.XDROpaqueSize(len(data))
	var frame []byte
	if par.RouteDirect {
		frame = make([]byte, 0, xlen)
	} else {
		frame = routeHeader(c.rank, dst, tag, xlen)
	}
	frame = mpt.AppendXDROpaque(frame, data)
	c.p.Sleep(env.Cost(par.TaskSendOps))

	if par.RouteDirect {
		return c.sendDirect(dst, tag, frame, sentAt)
	}
	arr, err := env.Loop.Transmit(c.p.Now(), c.rank, c.rank, xlen+par.HeaderBytes)
	if err != nil {
		return fmt.Errorf("pvm_send: loopback to pvmd: %w", err)
	}
	env.DeliverAt(arr, c.t.daemons[c.rank].box, &mpt.Message{Src: c.rank, Tag: kindRoute, Data: frame, SentAt: sentAt})
	return nil
}

// sendDirect is the PvmRouteDirect ablation: task-to-task streaming like
// p4's transport but still paying the XDR tax.
func (c *comm) sendDirect(dst, tag int, xdr []byte, sentAt sim.Time) error {
	env, par := c.t.env, c.t.par
	msg := &mpt.Message{Src: c.rank, Tag: tag, Data: xdr, SentAt: sentAt}
	if dst == c.rank {
		arr, err := env.Loop.Transmit(c.p.Now(), c.rank, c.rank, len(xdr)+par.HeaderBytes)
		if err != nil {
			return fmt.Errorf("pvm_send(direct): %w", err)
		}
		env.DeliverAt(arr, env.Boxes[dst], msg)
		return nil
	}
	var last sim.Time
	remaining := len(xdr)
	for first := true; first || remaining > 0; first = false {
		chunk := remaining
		if chunk > par.FragBytes {
			chunk = par.FragBytes
		}
		remaining -= chunk
		c.p.Sleep(env.Cost(700 + 0.4*float64(chunk)))
		arr, err := env.Net.Transmit(c.p.Now(), c.rank, dst, chunk+par.HeaderBytes)
		if err != nil {
			return fmt.Errorf("pvm_send(direct): to %d: %w", dst, err)
		}
		last = arr
	}
	env.DeliverAt(last, env.Boxes[dst], msg)
	return nil
}

// Recv implements pvm_recv: block for a matching message, then XDR-unpack
// it.
func (c *comm) Recv(src, tag int) (*mpt.Message, error) {
	env, par := c.t.env, c.t.par
	msg := env.Boxes[c.rank].Get(c.p, src, tag)
	if msg == nil {
		return nil, fmt.Errorf("pvm_recv: interrupted")
	}
	c.t.stats.Recvs++
	// A message of several fragments arrives as its chunk list, by
	// reference; the unpack decodes it straight into the user's buffer.
	enc := mpt.TakeChunks(msg)
	if enc == nil {
		enc = [][]byte{msg.Data}
	}
	size := 0
	for _, chunk := range enc {
		size += len(chunk)
	}
	c.p.Sleep(env.Cost(par.UnpackFixedOps + par.UnpackOpsPerByte*float64(size)))
	data, err := mpt.XDROpaqueDecode(enc...)
	if err != nil {
		return nil, fmt.Errorf("pvm_recv: %w", err)
	}
	msg.Data = data
	return msg, nil
}

// Bcast implements the collective wrapper over pvm_mcast: the root packs
// once and the local daemon fans the message out to every destination
// daemon sequentially; other ranks simply pvm_recv.
func (c *comm) Bcast(root, tag int, data []byte) ([]byte, error) {
	env, par := c.t.env, c.t.par
	if err := validRank(env.N, root); err != nil {
		return nil, err
	}
	mtag := mcastTag(tag)
	if c.rank != root {
		msg, err := c.Recv(root, mtag)
		if err != nil {
			return nil, fmt.Errorf("pvm_mcast recv: %w", err)
		}
		return msg.Data, nil
	}
	if env.N == 1 {
		return data, nil
	}
	c.t.stats.Sends++
	c.t.stats.BytesSent += int64(len(data)) * int64(env.N-1)
	c.p.Sleep(env.Cost(par.PackFixedOps + par.PackOpsPerByte*float64(len(data))))
	// One XDR pass serves every destination: the frame is shared, read
	// only, by all of them.
	xlen := mpt.XDROpaqueSize(len(data))
	var frame []byte
	if par.RouteDirect {
		frame = make([]byte, 0, xlen)
	} else {
		dsts := make([]int, 0, env.N-1)
		for r := 0; r < env.N; r++ {
			if r != root {
				dsts = append(dsts, r)
			}
		}
		frame = mcastHeader(c.rank, mtag, dsts, xlen)
	}
	frame = mpt.AppendXDROpaque(frame, data)
	c.p.Sleep(env.Cost(par.TaskSendOps))

	if par.RouteDirect {
		for r := 0; r < env.N; r++ {
			if r == root {
				continue
			}
			if err := c.sendDirect(r, mtag, frame, c.p.Now()); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	arr, err := env.Loop.Transmit(c.p.Now(), c.rank, c.rank, xlen+par.HeaderBytes)
	if err != nil {
		return nil, fmt.Errorf("pvm_mcast: loopback to pvmd: %w", err)
	}
	env.DeliverAt(arr, c.t.daemons[c.rank].box, &mpt.Message{Src: c.rank, Tag: kindMcast, Data: frame})
	return data, nil
}

// GlobalSumInt64 implements mpt.Comm. PVM provides no global operation
// (Table 1: "Not Available"), so it leaves vec as it was; an application
// sums through mpt.SumFloat64's manual gather instead, which sums in
// place as the other tools' global operations do.
func (c *comm) GlobalSumInt64([]int64) ([]int64, error) { return nil, mpt.ErrNotSupported }

// GlobalSumFloat64 implements mpt.Comm. See GlobalSumInt64.
func (c *comm) GlobalSumFloat64([]float64) ([]float64, error) { return nil, mpt.ErrNotSupported }

// Barrier implements pvm_barrier as a task-level tree through the normal
// daemon route.
func (c *comm) Barrier() error {
	return mpt.TreeBarrier(c, mpt.TagBarrier)
}

func validRank(n, r int) error {
	if r < 0 || r >= n {
		return fmt.Errorf("pvm: rank %d out of range [0,%d)", r, n)
	}
	return nil
}

// mcastTag separates daemon-multicast deliveries from plain sends with
// the same user tag.
func mcastTag(user int) int {
	if user < 0 {
		return user
	}
	return -2_000_003 - user
}

// --- wire encoding of the daemon protocol -------------------------------

func tagBits(tag int) uint32 { return uint32(int32(tag)) }
func bitsTag(b uint32) int   { return int(int32(b)) }

// routeHeaderLen is the size of a route envelope before its payload.
const routeHeaderLen = 17

// routeHeader returns a task-to-daemon route envelope for a payload of
// paylen bytes, with the capacity to append that payload in place.
func routeHeader(srcTask, dstTask, tag, paylen int) []byte {
	out := make([]byte, 0, routeHeaderLen+paylen)
	out = append(out, kindRoute)
	out = binary.BigEndian.AppendUint32(out, uint32(srcTask))
	out = binary.BigEndian.AppendUint32(out, uint32(dstTask))
	out = binary.BigEndian.AppendUint32(out, tagBits(tag))
	return binary.BigEndian.AppendUint32(out, uint32(paylen))
}

// mcastHeader is routeHeader for a multicast to dsts.
func mcastHeader(srcTask, tag int, dsts []int, paylen int) []byte {
	out := make([]byte, 0, 15+2*len(dsts)+paylen)
	out = append(out, kindMcast)
	out = binary.BigEndian.AppendUint32(out, uint32(srcTask))
	out = binary.BigEndian.AppendUint32(out, tagBits(tag))
	out = binary.BigEndian.AppendUint16(out, uint16(len(dsts)))
	for _, d := range dsts {
		out = binary.BigEndian.AppendUint16(out, uint16(d))
	}
	return binary.BigEndian.AppendUint32(out, uint32(paylen))
}

// encodeFrag returns the header of a daemon-to-daemon fragment carrying
// a chunk of chunkLen bytes. The chunk itself is not copied: the frame
// carries it by reference behind the header (see mpt.NewFrame).
func encodeFrag(msgid uint32, frag, nfrags int, srcTask, dstTask, tag, chunkLen int) []byte {
	out := make([]byte, 0, fragHeaderLen)
	out = append(out, kindFrag)
	out = binary.BigEndian.AppendUint32(out, msgid)
	out = binary.BigEndian.AppendUint16(out, uint16(frag))
	out = binary.BigEndian.AppendUint16(out, uint16(nfrags))
	out = binary.BigEndian.AppendUint32(out, uint32(srcTask))
	out = binary.BigEndian.AppendUint32(out, uint32(dstTask))
	out = binary.BigEndian.AppendUint32(out, tagBits(tag))
	return binary.BigEndian.AppendUint32(out, uint32(chunkLen))
}

func encodeAck(msgid uint32, frag int) []byte {
	out := make([]byte, 0, 7)
	out = append(out, kindAck)
	out = binary.BigEndian.AppendUint32(out, msgid)
	return binary.BigEndian.AppendUint16(out, uint16(frag))
}

func encodeTimeout(msgid uint32, frag int) []byte {
	out := make([]byte, 0, 7)
	out = append(out, kindTimeout)
	out = binary.BigEndian.AppendUint32(out, msgid)
	return binary.BigEndian.AppendUint16(out, uint16(frag))
}
