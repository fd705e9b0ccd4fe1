package mpt

import (
	"fmt"
)

// Data-distribution helpers layered over a tool's point-to-point
// primitives, matching the decompositions the 1995 application suite
// used (host-node scatter/collect, block all-gather, pairwise
// all-to-all). The applications in internal/apps implement their own
// variants where the paper's code structure matters; these exported
// helpers are the reusable, tested equivalents for library users.

// BlockShare returns rank r's [lo, hi) block of n items split across p
// ranks, earlier ranks absorbing the remainder.
func BlockShare(n, p, r int) (lo, hi int) {
	base, rem := n/p, n%p
	lo = r*base + minInt(r, rem)
	hi = lo + base
	if r < rem {
		hi++
	}
	return lo, hi
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Scatter distributes root's data blocks: rank i receives data[i]. Only
// the root's data argument is read. Every rank returns its own block.
func Scatter(c Comm, root, tag int, data [][]byte) ([]byte, error) {
	n := c.Size()
	if err := validRank(n, root); err != nil {
		return nil, err
	}
	if c.Rank() == root {
		if len(data) != n {
			return nil, fmt.Errorf("mpt: scatter needs %d blocks, got %d", n, len(data))
		}
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			if err := c.Send(r, mixDistTag(tag, TagScatterOp), data[r]); err != nil {
				return nil, fmt.Errorf("scatter to %d: %w", r, err)
			}
		}
		return data[root], nil
	}
	msg, err := c.Recv(root, mixDistTag(tag, TagScatterOp))
	if err != nil {
		return nil, fmt.Errorf("scatter recv: %w", err)
	}
	return msg.Data, nil
}

// Gather collects every rank's block at root: the returned slice (only
// meaningful at root) holds rank i's contribution at index i.
func Gather(c Comm, root, tag int, mine []byte) ([][]byte, error) {
	n := c.Size()
	if err := validRank(n, root); err != nil {
		return nil, err
	}
	if c.Rank() != root {
		if err := c.Send(root, mixDistTag(tag, TagGatherOp), mine); err != nil {
			return nil, fmt.Errorf("gather send: %w", err)
		}
		return nil, nil
	}
	out := make([][]byte, n)
	out[root] = CloneData(mine)
	// Arrivals are tracked apart from out: an empty contribution is
	// delivered as nil, so out[src] != nil cannot tell it was seen.
	seen := make([]bool, n)
	seen[root] = true
	for i := 0; i < n-1; i++ {
		msg, err := c.Recv(AnySource, mixDistTag(tag, TagGatherOp))
		if err != nil {
			return nil, fmt.Errorf("gather recv: %w", err)
		}
		if msg.Src < 0 || msg.Src >= n || seen[msg.Src] {
			return nil, fmt.Errorf("gather: duplicate or invalid contribution from %d", msg.Src)
		}
		seen[msg.Src] = true
		out[msg.Src] = msg.Data
	}
	return out, nil
}

// AllGather gives every rank every block: gather at 0, then a broadcast
// of the concatenation with a tiny length-prefixed framing.
func AllGather(c Comm, tag int, mine []byte) ([][]byte, error) {
	blocks, err := Gather(c, 0, tag, mine)
	if err != nil {
		return nil, err
	}
	var frame []byte
	if c.Rank() == 0 {
		for _, b := range blocks {
			frame = EncodeUint32(frame, uint32(len(b)))
			frame = append(frame, b...)
		}
	}
	frame, err = c.Bcast(0, mixDistTag(tag, TagScatterOp), frame)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, 0, c.Size())
	off := 0
	for off < len(frame) {
		l, err := DecodeUint32(frame, off)
		if err != nil {
			return nil, err
		}
		off += 4
		if off+int(l) > len(frame) {
			return nil, fmt.Errorf("mpt: allgather frame truncated")
		}
		out = append(out, CloneData(frame[off:off+int(l)]))
		off += int(l)
	}
	if len(out) != c.Size() {
		return nil, fmt.Errorf("mpt: allgather produced %d blocks, want %d", len(out), c.Size())
	}
	return out, nil
}

// AllToAll performs the pairwise exchange: rank i sends blocks[j] to
// rank j and returns the blocks received (own block passed through),
// indexed by source. Sends go out in offset order to spread load.
func AllToAll(c Comm, tag int, blocks [][]byte) ([][]byte, error) {
	n, me := c.Size(), c.Rank()
	if len(blocks) != n {
		return nil, fmt.Errorf("mpt: alltoall needs %d blocks, got %d", n, len(blocks))
	}
	out := make([][]byte, n)
	out[me] = CloneData(blocks[me])
	for off := 1; off < n; off++ {
		dst := (me + off) % n
		if err := c.Send(dst, mixDistTag(tag, TagScatterOp), blocks[dst]); err != nil {
			return nil, fmt.Errorf("alltoall send to %d: %w", dst, err)
		}
	}
	for off := 1; off < n; off++ {
		src := (me + n - off) % n
		msg, err := c.Recv(src, mixDistTag(tag, TagScatterOp))
		if err != nil {
			return nil, fmt.Errorf("alltoall recv from %d: %w", src, err)
		}
		out[src] = msg.Data
	}
	return out, nil
}

// mixDistTag keeps distribution traffic separated per user tag.
func mixDistTag(user, internal int) int {
	if user < 0 {
		return internal
	}
	return internal*1_000_003 - user
}
