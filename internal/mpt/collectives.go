package mpt

import (
	"errors"
	"fmt"
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

// treeReduce walks this rank's part of a binomial-tree reduction to rank
// 0 on tag: it receives each child's message, in the tree's order, and
// hands its data to fold, then hands its own contribution to its parent
// with up. Rank 0 has no parent and never calls up.
func treeReduce(c Comm, tag int, fold func(peer []byte) error, up func(parent int) error) error {
	me, n := c.Rank(), c.Size()
	for mask := 1; mask < n; mask <<= 1 {
		if me&mask != 0 {
			if err := up(me &^ mask); err != nil {
				return fmt.Errorf("tree reduce send to %d: %w", me&^mask, err)
			}
			return nil
		}
		if me|mask < n {
			msg, err := c.Recv(me|mask, tag)
			if err != nil {
				return fmt.Errorf("tree reduce recv from %d: %w", me|mask, err)
			}
			if err := fold(msg.Data); err != nil {
				return err
			}
		}
	}
	return nil
}

// TreeBarrier synchronizes all ranks with a reduce-then-broadcast of
// empty messages.
func TreeBarrier(c Comm, tag int) error {
	err := treeReduce(c, tag,
		func([]byte) error { return nil },
		func(parent int) error { return c.Send(parent, tag, nil) })
	if err != nil {
		return err
	}
	_, err = BinomialBcast(c, c.Send, 0, tag, nil)
	return err
}

// GlobalSumViaTree implements the combine primitive of p4's
// p4_global_op and Express's excombine: a binomial-tree reduce to rank 0
// on TagReduce, then a binomial broadcast of the sum on TagBcast. Like
// those primitives it sums in place: on return every rank's vec holds
// the element-wise sum, and the returned slice is vec itself; after an
// error vec holds a partial sum. A rank encodes only what leaves it: a
// child sends a fresh encoding of its partly reduced vec to its parent,
// a parent adds each child's encoding straight into its vec, and rank 0
// encodes the sum once for the broadcast, which every other rank
// decodes into its own vec. No rank writes a buffer once it is sent, so
// send may hand them on by reference, and the broadcast's one encoding
// is shared, read only, by every rank.
func GlobalSumViaTree[T word](c Comm, send SendFunc, vec []T) ([]T, error) {
	err := treeReduce(c, TagReduce,
		func(peer []byte) error { return addEncoded(vec, peer) },
		func(parent int) error { return send(parent, TagReduce, encodeWords(vec)) })
	if err != nil {
		return nil, err
	}
	var sum []byte
	if c.Rank() == 0 && c.Size() > 1 {
		sum = encodeWords(vec)
	}
	sum, err = BinomialBcast(c, send, 0, TagBcast, sum)
	if err != nil {
		return nil, err
	}
	if c.Rank() != 0 {
		if err := decodeInto(vec, sum); err != nil {
			return nil, err
		}
	}
	return vec, nil
}

// ManualSumFloat64 is the application-level fallback a 1995 programmer
// wrote when the tool lacked a global operation (PVM): gather every
// contribution to rank 0 with point-to-point sends, add locally, and
// broadcast the result back. It sums in place, as GlobalSumViaTree
// does: rank 0 adds each contribution into its vec in arrival order,
// and every other rank decodes the broadcast sum into its own vec.
func ManualSumFloat64(c Comm, vec []float64) ([]float64, error) {
	if c.Rank() != 0 {
		if err := c.Send(0, TagGatherOp, EncodeFloat64s(vec)); err != nil {
			return nil, fmt.Errorf("manual sum send: %w", err)
		}
		sum, err := c.Bcast(0, TagBcast, nil)
		if err != nil {
			return nil, err
		}
		if err := decodeInto(vec, sum); err != nil {
			return nil, err
		}
		return vec, nil
	}
	for i := 1; i < c.Size(); i++ {
		msg, err := c.Recv(AnySource, TagGatherOp)
		if err != nil {
			return nil, fmt.Errorf("manual sum gather: %w", err)
		}
		if err := addEncoded(vec, msg.Data); err != nil {
			return nil, fmt.Errorf("manual sum: %w", err)
		}
	}
	var sum []byte
	if c.Size() > 1 {
		sum = EncodeFloat64s(vec)
	}
	if _, err := c.Bcast(0, TagBcast, sum); err != nil {
		return nil, err
	}
	return vec, nil
}

// SumFloat64 uses the tool's global operation when available and falls
// back to the manual gather otherwise, exactly as the paper's application
// suite had to. Either way it sums in place: on return vec holds the sum
// on every rank, and the returned slice is vec.
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
