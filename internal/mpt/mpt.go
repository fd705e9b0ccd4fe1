// Package mpt defines the common framework for the message-passing tools
// the paper evaluates (Express, p4, PVM): the Comm programming interface
// their primitives are exposed through, per-task mailboxes with selective
// receive, reusable collective algorithms, and the harness that runs an
// SPMD program over a simulated platform.
//
// Each tool lives in its own subpackage and implements the primitives
// with the mechanisms the 1995 systems actually used — direct streams
// for p4, daemon routing with XDR encoding for PVM, rendezvous plus
// fixed-size packetization for Express. The paper's Tool Performance
// Level results emerge from those mechanisms rather than from per-curve
// constants.
//
// Payload ownership follows one rule at every hop, so each hop costs at
// most one host copy:
//
//   - Send copies the caller's buffer once, at the tool boundary. That
//     copy is the modelled user-to-kernel copy; the caller may reuse its
//     buffer as soon as Send returns.
//   - A delivered Message.Data belongs to the receiver.
//   - Inside a tool, a payload is immutable once it has been handed on —
//     to a daemon or a fragment stream — and is shared there by
//     reference, never cloned. A daemon-to-daemon frame (NewFrame) is a
//     header plus a chunk that slices the sender's encoded buffer. A
//     message of several fragments reaches the receiving task as the
//     list of those chunks (NewChunked), never gathered into a
//     reassembly buffer; the task's unpack decodes the list straight
//     into the one fresh buffer the user gets, and TakeChunks detaches
//     the list first, so a chunked message never reaches a user.
//   - The global sum reduces in place, as p4_global_op and excombine
//     do: the caller's vector is the accumulator, and on return it holds
//     the sum on every rank. A parent adds each child's encoding
//     straight into it.
//   - A collective hands the buffers it owns on by reference. The global
//     sum's tree sends skip Send's copy (see GlobalSumViaTree): each is
//     a fresh encoding of the sender's vector, made only because a
//     message leaves the rank and never written again. Rank 0 encodes
//     the sum once for the broadcast, all ranks share that encoding read
//     only, and every other rank decodes it into its own vector.
//     User-facing Send, Bcast and Barrier keep the one copy.
//
// The virtual cost of a hop is computed from payload lengths alone, so
// the host copies a tool skips change no simulated time.
package mpt

import (
	"errors"
	"fmt"

	"tooleval/internal/sim"
)

// Wildcards for Recv matching, mirroring the tools' "any" receive modes.
const (
	AnySource = -1
	AnyTag    = -1
)

// Internal tag space used by collective implementations. User code must
// use tags >= 0.
const (
	TagBarrier  = -2
	TagBcast    = -3
	TagReduce   = -4
	TagGatherOp = -5
)

// ErrNotSupported reports that a tool does not provide the requested
// primitive (the paper's "Not Available": PVM has no global reduction).
var ErrNotSupported = errors.New("mpt: primitive not supported by this tool")

// ErrMalformed reports an encoded payload that does not decode: a
// length that is not a whole number of elements, a truncated header, or
// operands of a combine that disagree in length.
var ErrMalformed = errors.New("mpt: malformed payload")

// Message is a delivered user-level message.
type Message struct {
	// Src is the sending rank and Tag the user tag.
	Src, Tag int
	// Data is the payload. The receiver owns it: no tool keeps a
	// reference it will write through, and no other receiver shares it.
	Data []byte
	// SentAt is when the sending task issued the send; DeliveredAt is
	// when the message became visible to the receiving task.
	SentAt, DeliveredAt sim.Time
	// box carries the destination mailbox while the message rides an
	// in-flight delivery event (see Env.DeliverAt): storing it here lets
	// the delivery be a single closure-free sim.AtCall with the message
	// as the only argument.
	box *Mailbox
	// body is the by-reference second part of a tool-internal frame
	// (see NewFrame); nil on every message a user receives.
	body []byte
	// chunks is the by-reference payload of a chunked message (see
	// NewChunked); nil on every message a user receives. A pointer, not
	// a slice, keeps Message in its 96-byte allocation size class.
	chunks *[][]byte
}

// NewFrame builds a tool-internal message whose wire form is hdr
// followed by body: Data holds hdr, and body is carried by reference.
// body must be a payload already handed on, and so immutable — a slice
// of a sender's encoded buffer, not a copy of it. The receiving side of
// the tool reads it back with FrameBody. A frame never reaches a user.
func NewFrame(src, tag int, hdr, body []byte) *Message {
	return &Message{Src: src, Tag: tag, Data: hdr, body: body}
}

// FrameBody returns the body of a message built by NewFrame, and nil
// for any other message. The body is shared: never write into it.
func FrameBody(m *Message) []byte { return m.body }

// NewChunked builds a tool-internal message whose payload is the
// concatenation of *chunks, each carried by reference; Data is nil.
// Every chunk must be a payload already handed on, and so immutable.
// The receiving side of the tool detaches the chunks with TakeChunks
// and gives the message a payload of its own before a user sees it.
func NewChunked(src, tag int, chunks *[][]byte) *Message {
	return &Message{Src: src, Tag: tag, chunks: chunks}
}

// TakeChunks detaches and returns the chunk list of a message built by
// NewChunked, leaving m a plain message, and returns nil for any other
// message. The chunks are shared: never write into them.
func TakeChunks(m *Message) [][]byte {
	if m.chunks == nil {
		return nil
	}
	c := *m.chunks
	m.chunks = nil
	return c
}

// Comm is the per-rank endpoint of a message-passing tool, the common
// surface of the primitives compared in Table 1 of the paper:
// send/receive, broadcast/multicast, and global summation. All methods
// must be called from the rank's own simulated process.
type Comm interface {
	// Rank is this task's id in 0..Size-1; Size is the number of tasks.
	Rank() int
	Size() int
	// Send transmits data to rank dst with the given tag. Buffering
	// semantics (whether Send blocks until the data is on the wire) are
	// tool-specific; Send copies data once, before it returns, so data is
	// always safe to reuse on return.
	Send(dst, tag int, data []byte) error
	// Recv blocks until a message matching (src, tag) is available.
	// AnySource / AnyTag act as wildcards.
	Recv(src, tag int) (*Message, error)
	// Bcast is a collective broadcast: every rank calls it, the root's
	// data is returned on all ranks.
	Bcast(root, tag int, data []byte) ([]byte, error)
	// GlobalSumInt64 is a collective reduction in place, as p4's
	// p4_global_op and Express's excombine are: every rank contributes
	// vec, and on return every rank's vec holds the element-wise sum;
	// the returned slice is vec itself. After an error vec holds a
	// partial sum. Tools without a global operation return
	// ErrNotSupported (PVM, per the paper) and leave vec as it was.
	GlobalSumInt64(vec []int64) ([]int64, error)
	// GlobalSumFloat64 is the float64 variant of GlobalSumInt64.
	GlobalSumFloat64(vec []float64) ([]float64, error)
	// Barrier blocks until all ranks have entered it.
	Barrier() error
}

// Tool builds per-rank Comm endpoints over an Env. Implementations spawn
// any helper daemons at construction time.
type Tool interface {
	// Name is the tool's identifier: "p4", "pvm" or "express".
	Name() string
	// NewComm binds rank running on process p to the tool.
	NewComm(p *sim.Proc, rank int) Comm
}

// Factory constructs a tool over a prepared environment.
type Factory func(*Env) (Tool, error)

// Stats aggregates tool-internal accounting exposed for the benchmark
// harness and ablation studies.
type Stats struct {
	Sends       int64
	Recvs       int64
	BytesSent   int64
	Retransmits int64 // daemon-protocol retransmissions (PVM)
	Acks        int64 // protocol-level acknowledgements (Express, PVM)
	DroppedMsgs int64 // messages abandoned after repeated failures
}

func validRank(n, r int) error {
	if r < 0 || r >= n {
		return fmt.Errorf("mpt: rank %d out of range [0,%d)", r, n)
	}
	return nil
}
