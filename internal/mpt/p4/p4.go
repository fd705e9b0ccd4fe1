// Package p4 models the Argonne p4 system's message passing: tasks hold
// direct stream connections to one another, sends are asynchronous once
// the data is handed to the transport, and the per-message software path
// is short — "a very small amount of overhead to the underlying transport
// layer", which the paper credits for p4 winning every primitive at the
// Tool Performance Level.
//
// Primitive name mapping (Table 1): p4_send / p4_recv, p4_broadcast
// (binomial spanning tree), ring via send/recv, p4_global_op (tree
// combine).
package p4

import (
	"fmt"

	"tooleval/internal/mpt"
	"tooleval/internal/sim"
)

// Params are p4's software cost constants, expressed in host operations
// so the same tool runs proportionally faster on the Alpha cluster than
// on a SPARCstation ELC — as in the paper.
type Params struct {
	// SendFixedOps / RecvFixedOps model the per-call library + kernel
	// entry path.
	SendFixedOps float64
	RecvFixedOps float64
	// SendOpsPerByte / RecvOpsPerByte model the single user-kernel copy
	// (plus checksum) each side performs.
	SendOpsPerByte float64
	RecvOpsPerByte float64
	// ChunkBytes is the socket-write granularity; ChunkOps the per-write
	// syscall cost.
	ChunkBytes int
	ChunkOps   float64
	// HeaderBytes is p4's small wire header per chunk.
	HeaderBytes int
}

// DefaultParams holds the calibrated constants (TestTable3AgainstPaper
// in internal/bench checks their fit against Table 3).
func DefaultParams() Params {
	return Params{
		SendFixedOps:   5200,
		RecvFixedOps:   5200,
		SendOpsPerByte: 1.55,
		RecvOpsPerByte: 1.00,
		ChunkBytes:     4096,
		ChunkOps:       700,
		HeaderBytes:    16,
	}
}

// Tool implements mpt.Tool.
type Tool struct {
	env   *mpt.Env
	par   Params
	stats mpt.Stats
}

var _ mpt.Tool = (*Tool)(nil)

// New builds a p4 instance with default parameters.
func New(env *mpt.Env) (mpt.Tool, error) { return NewWithParams(env, DefaultParams()) }

// NewWithParams builds a p4 instance with explicit parameters (used by
// the ablation benchmarks).
func NewWithParams(env *mpt.Env, par Params) (*Tool, error) {
	if par.ChunkBytes <= 0 {
		return nil, fmt.Errorf("p4: ChunkBytes must be positive, got %d", par.ChunkBytes)
	}
	return &Tool{env: env, par: par}, nil
}

// Name implements mpt.Tool.
func (t *Tool) Name() string { return "p4" }

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

// Send implements p4_send: the sender charges its library path and the
// user-to-kernel copy of the whole buffer (the write() semantics of the
// stream transport), then the kernel streams the message to the
// destination in socket-sized chunks that serialize on the fabric.
func (c *comm) Send(dst, tag int, data []byte) error {
	return c.sendRef(dst, tag, mpt.CloneData(data))
}

// sendRef is Send without the host copy: data is handed on by reference,
// so the caller must own it and never write it again. The charges and
// the transmissions are Send's, so virtual time is the same. The global
// sum's tree sends use it.
func (c *comm) sendRef(dst, tag int, data []byte) error {
	env, par := c.t.env, c.t.par
	if dst < 0 || dst >= env.N {
		return fmt.Errorf("p4_send: bad destination %d", dst)
	}
	c.t.stats.Sends++
	c.t.stats.BytesSent += int64(len(data))
	sentAt := c.p.Now()
	c.p.Sleep(env.Cost(par.SendFixedOps + par.SendOpsPerByte*float64(len(data))))

	msg := &mpt.Message{Src: c.rank, Tag: tag, Data: data, SentAt: sentAt}
	if dst == c.rank {
		arr, err := env.Loop.Transmit(c.p.Now(), c.rank, c.rank, len(data)+par.HeaderBytes)
		if err != nil {
			return fmt.Errorf("p4_send: %w", err)
		}
		env.DeliverAt(arr, env.Boxes[dst], msg)
		return nil
	}
	var last sim.Time
	remaining := len(data)
	for first := true; first || remaining > 0; first = false {
		chunk := remaining
		if chunk > par.ChunkBytes {
			chunk = par.ChunkBytes
		}
		remaining -= chunk
		c.p.Sleep(env.Cost(par.ChunkOps))
		arr, err := env.Net.Transmit(c.p.Now(), c.rank, dst, chunk+par.HeaderBytes)
		if err != nil {
			return fmt.Errorf("p4_send: to %d: %w", dst, err)
		}
		last = arr
	}
	env.DeliverAt(last, env.Boxes[dst], msg)
	return nil
}

// Recv implements p4_recv: block for a matching message, then charge the
// receive-side copy.
func (c *comm) Recv(src, tag int) (*mpt.Message, error) {
	env, par := c.t.env, c.t.par
	msg := env.Boxes[c.rank].Get(c.p, src, tag)
	if msg == nil {
		return nil, fmt.Errorf("p4_recv: interrupted")
	}
	c.t.stats.Recvs++
	c.p.Sleep(env.Cost(par.RecvFixedOps + par.RecvOpsPerByte*float64(len(msg.Data))))
	return msg, nil
}

// Bcast implements p4_broadcast over a binomial spanning tree.
func (c *comm) Bcast(root, tag int, data []byte) ([]byte, error) {
	return mpt.BinomialBcast(c, c.Send, root, mixTag(tag, mpt.TagBcast), data)
}

// GlobalSumInt64 implements p4_global_op(sum), which leaves the sum in
// the caller's vector: a tree reduce plus tree broadcast, charging the
// element-wise additions. The tree sends hand their fresh encodings on
// by reference (see mpt.GlobalSumViaTree), and the returned slice is vec.
func (c *comm) GlobalSumInt64(vec []int64) ([]int64, error) { return globalSum(c, vec) }

// GlobalSumFloat64 is the float64 variant of GlobalSumInt64.
func (c *comm) GlobalSumFloat64(vec []float64) ([]float64, error) { return globalSum(c, vec) }

func globalSum[T int64 | float64](c *comm, vec []T) ([]T, error) {
	c.chargeCombine(len(vec))
	out, err := mpt.GlobalSumViaTree(c, c.sendRef, vec)
	if err != nil {
		return nil, fmt.Errorf("p4_global_op: %w", err)
	}
	return out, nil
}

// Barrier synchronizes all ranks over the binomial tree.
func (c *comm) Barrier() error {
	return mpt.TreeBarrier(c, mpt.TagBarrier)
}

func (c *comm) chargeCombine(n int) {
	// ~2 ops per element per tree level for the local additions.
	c.p.Sleep(c.t.env.Cost(2 * float64(n)))
}

// mixTag keeps internal collective traffic out of the user tag space
// while still separating concurrent collectives with different user tags.
func mixTag(user, internal int) int {
	if user < 0 {
		return internal
	}
	return internal*1_000_003 - user
}
