package mpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Reusable collective algorithms, parameterized over a tool's point-to-
// point primitives. Tools pick the algorithm that matches their 1995
// implementation: p4 uses the binomial tree for broadcast and global
// operations, Express broadcasts linearly from the root (the paper's
// "worst performance" broadcast) but combines over a tree, and PVM's
// multicast is a daemon-level fan-out implemented in its own package.

// SendFunc is the point-to-point send a collective hands its messages
// on with. A user-facing collective passes the tool's Comm.Send, which
// copies once at the tool boundary; a collective that owns every buffer
// it sends passes the tool's by-reference send instead (see
// GlobalSumViaTree).
type SendFunc func(dst, tag int, data []byte) error

// BinomialBcast distributes the root's data to all ranks over a binomial
// spanning tree: round k has 2^k informed ranks, each forwarding to a
// partner 2^k away (in root-relative numbering). Each forward goes
// through send.
func BinomialBcast(c Comm, send SendFunc, root, tag int, data []byte) ([]byte, error) {
	n := c.Size()
	if err := validRank(n, root); err != nil {
		return nil, err
	}
	me := (c.Rank() - root + n) % n
	if me != 0 {
		// Wait for my copy from the unique partner that informs me: my
		// relative rank with its highest set bit cleared. Receiving from
		// the exact source keeps back-to-back collectives from cross-
		// matching each other's traffic.
		hb := 1
		for hb<<1 <= me {
			hb <<= 1
		}
		src := (me&^hb + root) % n
		msg, err := c.Recv(src, tag)
		if err != nil {
			return nil, fmt.Errorf("binomial bcast recv from %d: %w", src, err)
		}
		data = msg.Data
	}
	// Forward: rank r (relative) becomes active once informed; in round k
	// it sends to r + 2^k when r < 2^k.
	for mask := 1; mask < n; mask <<= 1 {
		if me < mask && me+mask < n {
			dst := (me + mask + root) % n
			if err := send(dst, tag, data); err != nil {
				return nil, fmt.Errorf("binomial bcast send to %d: %w", dst, err)
			}
		}
	}
	return data, nil
}

// LinearBcast has the root send a separate copy to every other rank in
// rank order — Express's exbroadcast, whose sequential fan-out is why the
// paper finds it the slowest broadcast.
func LinearBcast(c Comm, root, tag int, data []byte) ([]byte, error) {
	n := c.Size()
	if err := validRank(n, root); err != nil {
		return nil, err
	}
	if c.Rank() == root {
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			if err := c.Send(r, tag, data); err != nil {
				return nil, fmt.Errorf("linear bcast send to %d: %w", r, err)
			}
		}
		return data, nil
	}
	msg, err := c.Recv(root, tag)
	if err != nil {
		return nil, fmt.Errorf("linear bcast recv: %w", err)
	}
	return msg.Data, nil
}

// TreeReduce folds every rank's contribution to rank root over a binomial
// tree. combine must be associative and commutative; it receives the
// accumulated local value and a peer's encoded contribution, may write
// the result into acc and return it, and must leave peer unchanged. The
// reduction owns its accumulator, so local must be a buffer the caller
// hands over (a fresh encoding), never one it still reads. A rank sends
// its accumulator up the tree with send and never touches it again.
func TreeReduce(c Comm, send SendFunc, root, tag int, local []byte, combine func(acc, peer []byte) ([]byte, error)) ([]byte, error) {
	n := c.Size()
	if err := validRank(n, root); err != nil {
		return nil, err
	}
	me := (c.Rank() - root + n) % n
	acc := local
	for mask := 1; mask < n; mask <<= 1 {
		if me&mask != 0 {
			dst := ((me &^ mask) + root) % n
			if err := send(dst, tag, acc); err != nil {
				return nil, fmt.Errorf("tree reduce send to %d: %w", dst, err)
			}
			return nil, nil // contributed; only root returns data
		}
		if me|mask < n {
			src := ((me | mask) + root) % n
			msg, err := c.Recv(src, tag)
			if err != nil {
				return nil, fmt.Errorf("tree reduce recv from %d: %w", src, err)
			}
			acc, err = combine(acc, msg.Data)
			if err != nil {
				return nil, err
			}
		}
	}
	return acc, nil
}

// TreeBarrier synchronizes all ranks with a reduce-then-broadcast of
// empty messages.
func TreeBarrier(c Comm, tag int) error {
	_, err := TreeReduce(c, c.Send, 0, tag, nil, func(acc, _ []byte) ([]byte, error) { return acc, nil })
	if err != nil {
		return err
	}
	_, err = BinomialBcast(c, c.Send, 0, tag, nil)
	return err
}

// CombineSumInt64 is the element-wise int64 vector sum used by the
// global-summation primitive (Figure 4's benchmark). It adds peer into
// acc in encoded form and returns acc: one pass, no allocation.
func CombineSumInt64(acc, peer []byte) ([]byte, error) {
	if err := checkCombine("int64", acc, peer); err != nil {
		return nil, err
	}
	for i := 0; i < len(acc); i += 8 {
		a := binary.LittleEndian.Uint64(acc[i:])
		binary.LittleEndian.PutUint64(acc[i:], a+binary.LittleEndian.Uint64(peer[i:]))
	}
	return acc, nil
}

// CombineSumFloat64 is the float64 variant of CombineSumInt64.
func CombineSumFloat64(acc, peer []byte) ([]byte, error) {
	if err := checkCombine("float64", acc, peer); err != nil {
		return nil, err
	}
	for i := 0; i < len(acc); i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(acc[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(peer[i:]))
		binary.LittleEndian.PutUint64(acc[i:], math.Float64bits(a+b))
	}
	return acc, nil
}

// checkCombine validates the operands of an element-wise 8-byte combine.
func checkCombine(elem string, acc, peer []byte) error {
	for _, b := range [2][]byte{acc, peer} {
		if len(b)%8 != 0 {
			return fmt.Errorf("%w: %s payload length %d not a multiple of 8", ErrMalformed, elem, len(b))
		}
	}
	if len(acc) != len(peer) {
		return fmt.Errorf("%w: global sum length mismatch: %d vs %d", ErrMalformed, len(acc)/8, len(peer)/8)
	}
	return nil
}

// GlobalSumViaTree implements the combine primitive (reduce to rank 0,
// then a binomial broadcast of the result on TagBcast) used by p4's
// p4_global_op and Express's excombine. Every buffer it sends is one it
// owns — an accumulator it never touches again, then the reduced result,
// which no rank writes — so send may hand them on by reference. The
// returned slice is then shared by all ranks: the caller must decode it
// into a buffer of its own and never write into it.
func GlobalSumViaTree(c Comm, send SendFunc, local []byte, combine func(acc, peer []byte) ([]byte, error)) ([]byte, error) {
	reduced, err := TreeReduce(c, send, 0, TagReduce, local, combine)
	if err != nil {
		return nil, err
	}
	return BinomialBcast(c, send, 0, TagBcast, reduced)
}

// ManualSumFloat64 is the application-level fallback a 1995 programmer
// wrote when the tool lacked a global operation (PVM): gather every
// contribution to rank 0 with point-to-point sends, add locally, and
// broadcast the result back.
func ManualSumFloat64(c Comm, vec []float64) ([]float64, error) {
	n := c.Size()
	if c.Rank() == 0 {
		acc := make([]float64, len(vec))
		copy(acc, vec)
		for i := 1; i < n; i++ {
			msg, err := c.Recv(AnySource, TagGatherOp)
			if err != nil {
				return nil, fmt.Errorf("manual sum gather: %w", err)
			}
			peer, err := DecodeFloat64s(msg.Data)
			if err != nil {
				return nil, err
			}
			if len(peer) != len(acc) {
				return nil, fmt.Errorf("mpt: manual sum length mismatch: %d vs %d", len(peer), len(acc))
			}
			for k := range acc {
				acc[k] += peer[k]
			}
		}
		out, err := c.Bcast(0, TagBcast, EncodeFloat64s(acc))
		if err != nil {
			return nil, err
		}
		return DecodeFloat64s(out)
	}
	if err := c.Send(0, TagGatherOp, EncodeFloat64s(vec)); err != nil {
		return nil, fmt.Errorf("manual sum send: %w", err)
	}
	out, err := c.Bcast(0, TagBcast, nil)
	if err != nil {
		return nil, err
	}
	return DecodeFloat64s(out)
}

// SumFloat64 uses the tool's global operation when available and falls
// back to the manual gather otherwise, exactly as the paper's application
// suite had to.
func SumFloat64(c Comm, vec []float64) ([]float64, error) {
	out, err := c.GlobalSumFloat64(vec)
	if err == nil {
		return out, nil
	}
	if errors.Is(err, ErrNotSupported) {
		return ManualSumFloat64(c, vec)
	}
	return nil, err
}
