// Package express models ParaSoft Express message passing as the paper's
// test-beds ran it: exsend performs a rendezvous handshake with the
// destination's communication kernel, then moves the data in fixed-size
// packets, each individually acknowledged (stop-and-wait by default).
// exreceive drains the kernel buffer into the user buffer.
//
// The per-packet costs are Express's defining trade-off. In an isolated
// ping-pong they serialize, which is why the paper's Table 3 shows
// Express losing the large-message send/receive race badly. Under
// continuous bidirectional flow — the ring benchmark — the stop-and-wait
// gaps of one stream absorb other stations' traffic, so Express's
// effective cost rises far less than PVM's daemon protocol, reproducing
// the paper's observation that Express "is better suited for continuous
// flow of incoming and outgoing data".
//
// Primitive name mapping (Table 1): exsend / exreceive, exbroadcast
// (sequential fan-out from the root — the paper's worst broadcast),
// ring via exsend/exreceive, excombine (tree combine), exsync (barrier).
package express

import (
	"fmt"

	"tooleval/internal/mpt"
	"tooleval/internal/sim"
)

// Params are Express's software cost constants (host operations) and
// packet protocol parameters.
type Params struct {
	// SendFixedOps / RecvFixedOps are the per-call exsend/exreceive
	// library paths.
	SendFixedOps float64
	RecvFixedOps float64
	// RecvOpsPerByte is the exreceive buffer drain.
	RecvOpsPerByte float64
	// PacketBytes is the packetization unit (1 KB in the deployments the
	// paper measured). Per packet the sender charges PacketFixedOps plus
	// PacketOpsPerByte for the payload it carries.
	PacketBytes      int
	PacketFixedOps   float64
	PacketOpsPerByte float64
	// TurnaroundOps is the destination communication kernel's per-packet
	// handling before it acknowledges (charged as latency).
	TurnaroundOps float64
	// Window is how many packets may be unacknowledged; the measured
	// system behaved as stop-and-wait (1).
	Window int
	// Rendezvous enables the request/grant handshake before data moves.
	Rendezvous bool
	// CtrlBytes / AckBytes / HeaderBytes are wire sizes of the protocol
	// control traffic.
	CtrlBytes   int
	AckBytes    int
	HeaderBytes int
}

// DefaultParams holds the calibrated constants (see EXPERIMENTS.md for
// the fit against Table 3).
func DefaultParams() Params {
	return Params{
		SendFixedOps:     4200,
		RecvFixedOps:     4200,
		RecvOpsPerByte:   0.50,
		PacketBytes:      1024,
		PacketFixedOps:   3000,
		PacketOpsPerByte: 5.0,
		TurnaroundOps:    2600,
		Window:           1,
		Rendezvous:       true,
		CtrlBytes:        24,
		AckBytes:         32,
		HeaderBytes:      16,
	}
}

// Tool implements mpt.Tool.
type Tool struct {
	env   *mpt.Env
	par   Params
	stats mpt.Stats
}

var _ mpt.Tool = (*Tool)(nil)

// New builds an Express instance with default parameters.
func New(env *mpt.Env) (mpt.Tool, error) { return NewWithParams(env, DefaultParams()) }

// NewWithParams builds an Express instance with explicit parameters
// (used by the packet-size ablation).
func NewWithParams(env *mpt.Env, par Params) (*Tool, error) {
	if par.PacketBytes <= 0 {
		return nil, fmt.Errorf("express: PacketBytes must be positive, got %d", par.PacketBytes)
	}
	if par.Window < 1 {
		return nil, fmt.Errorf("express: Window must be >= 1, got %d", par.Window)
	}
	return &Tool{env: env, par: par}, nil
}

// Name implements mpt.Tool.
func (t *Tool) Name() string { return "express" }

// Stats returns tool-level counters.
func (t *Tool) Stats() mpt.Stats { return t.stats }

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

// Send implements exsend: rendezvous with the destination kernel, then
// packetized transfer with per-packet acknowledgement. The call blocks
// until the final packet is acknowledged (synchronous semantics).
func (c *comm) Send(dst, tag int, data []byte) error {
	return c.sendRef(dst, tag, mpt.CloneData(data))
}

// sendRef is Send without the host copy: data is handed on by reference,
// so the caller must own it and never write it again. The charges and
// the transmissions are Send's, so virtual time is the same. excombine's
// tree sends use it.
func (c *comm) sendRef(dst, tag int, data []byte) error {
	env, par := c.t.env, c.t.par
	if dst < 0 || dst >= env.N {
		return fmt.Errorf("exsend: bad destination %d", dst)
	}
	c.t.stats.Sends++
	c.t.stats.BytesSent += int64(len(data))
	sentAt := c.p.Now()
	c.p.Sleep(env.Cost(par.SendFixedOps))
	msg := &mpt.Message{Src: c.rank, Tag: tag, Data: data, SentAt: sentAt}

	if dst == c.rank {
		arr, err := env.Loop.Transmit(c.p.Now(), c.rank, c.rank, len(data)+par.HeaderBytes)
		if err != nil {
			return fmt.Errorf("exsend: %w", err)
		}
		env.DeliverAt(arr, env.Boxes[dst], msg)
		return nil
	}

	turnaround := env.Cost(par.TurnaroundOps)
	if par.Rendezvous {
		reqArr, err := env.Net.Transmit(c.p.Now(), c.rank, dst, par.CtrlBytes)
		if err != nil {
			return fmt.Errorf("exsend: rendezvous request to %d: %w", dst, err)
		}
		c.p.SleepUntil(reqArr.Add(turnaround))
		grantArr, err := env.Net.Transmit(c.p.Now(), dst, c.rank, par.CtrlBytes)
		if err != nil {
			return fmt.Errorf("exsend: rendezvous grant from %d: %w", dst, err)
		}
		c.p.SleepUntil(grantArr)
	}

	npkts := (len(data) + par.PacketBytes - 1) / par.PacketBytes
	if npkts == 0 {
		npkts = 1
	}
	// ackDue[i] is when packet i's acknowledgement lands back at the
	// sender; with Window w the sender stalls until packet i-w is acked.
	ackDue := make([]sim.Time, npkts)
	var lastData sim.Time
	for i := 0; i < npkts; i++ {
		if i >= par.Window {
			c.p.SleepUntil(ackDue[i-par.Window])
		}
		lo := i * par.PacketBytes
		hi := lo + par.PacketBytes
		if hi > len(data) {
			hi = len(data)
		}
		size := hi - lo
		if size < 0 {
			size = 0
		}
		c.p.Sleep(env.Cost(par.PacketFixedOps + par.PacketOpsPerByte*float64(size)))
		arr, err := env.Net.Transmit(c.p.Now(), c.rank, dst, size+par.HeaderBytes)
		if err != nil {
			return fmt.Errorf("exsend: packet %d to %d: %w", i, dst, err)
		}
		lastData = arr
		// The destination kernel handles the packet, then acks.
		ackArr, err := env.Net.Transmit(arr.Add(turnaround), dst, c.rank, par.AckBytes)
		if err != nil {
			return fmt.Errorf("exsend: ack %d from %d: %w", i, dst, err)
		}
		ackDue[i] = ackArr
		c.t.stats.Acks++
	}
	c.p.SleepUntil(ackDue[npkts-1])
	env.DeliverAt(lastData.Add(turnaround), env.Boxes[dst], msg)
	return nil
}

// Recv implements exreceive: block for a matching message, then drain the
// kernel buffer.
func (c *comm) Recv(src, tag int) (*mpt.Message, error) {
	env, par := c.t.env, c.t.par
	msg := env.Boxes[c.rank].Get(c.p, src, tag)
	if msg == nil {
		return nil, fmt.Errorf("exreceive: interrupted")
	}
	c.t.stats.Recvs++
	c.p.Sleep(env.Cost(par.RecvFixedOps + par.RecvOpsPerByte*float64(len(msg.Data))))
	return msg, nil
}

// Bcast implements exbroadcast: the root exsends a separate copy to each
// destination in rank order. Sequential fan-out over a synchronous send
// is why the paper finds Express's broadcast the slowest of the three.
func (c *comm) Bcast(root, tag int, data []byte) ([]byte, error) {
	return mpt.LinearBcast(c, root, mixTag(tag), data)
}

// GlobalSumInt64 implements excombine(+) over a binomial tree: excombine
// distributed its result over a tree even though exbroadcast did not.
// The tree sends hand the combine's own buffers on by reference, and
// every rank decodes the shared result into a fresh vector.
func (c *comm) GlobalSumInt64(vec []int64) ([]int64, error) {
	c.p.Sleep(c.t.env.Cost(2 * float64(len(vec))))
	out, err := mpt.GlobalSumViaTree(c, c.sendRef, mpt.EncodeInt64s(vec), mpt.CombineSumInt64)
	if err != nil {
		return nil, fmt.Errorf("excombine: %w", err)
	}
	return mpt.DecodeInt64s(out)
}

// GlobalSumFloat64 is the float64 variant of GlobalSumInt64.
func (c *comm) GlobalSumFloat64(vec []float64) ([]float64, error) {
	c.p.Sleep(c.t.env.Cost(2 * float64(len(vec))))
	out, err := mpt.GlobalSumViaTree(c, c.sendRef, mpt.EncodeFloat64s(vec), mpt.CombineSumFloat64)
	if err != nil {
		return nil, fmt.Errorf("excombine: %w", err)
	}
	return mpt.DecodeFloat64s(out)
}

// Barrier implements exsync over the binomial tree.
func (c *comm) Barrier() error {
	return mpt.TreeBarrier(c, mpt.TagBarrier)
}

func mixTag(user int) int {
	if user < 0 {
		return user
	}
	return -3_000_017 - user
}
