package mpt_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"tooleval/internal/mpt"
)

// The payload ownership rule (see the package doc) lets tools skip host
// copies; these tests pin the guarantees callers rely on, so a removed
// copy can never become shared mutable state.

// TestGlobalSumLeavesInputAndMatchesSerialSum is the metamorphic check
// "the global-sum value equals the serial sum": every rank gets the
// exact element-wise sum of all contributions, and no rank's input
// vector is written, although the reduction combines in place. Tools
// without a global operation (PVM) refuse it without touching the input
// and reach the same float sum through the SumFloat64 fallback.
func TestGlobalSumLeavesInputAndMatchesSerialSum(t *testing.T) {
	pf := mustPlatform(t, "alpha-fddi")
	const n = 257
	intVec := func(rank int) []int64 {
		v := make([]int64, n)
		for i := range v {
			// Large magnitudes make the int64 sum wrap, which the
			// serial reference reproduces exactly.
			v[i] = math.MaxInt64/3*int64(rank+1) - int64(i*i) + int64(rank)
		}
		return v
	}
	floatVec := func(rank int) []float64 {
		v := make([]float64, n)
		for i := range v {
			// Small dyadic values: every partial sum is exact, so the
			// tree's association order cannot change the result.
			v[i] = float64(rank*1000-i) + 0.25*float64(rank)
		}
		return v
	}
	for _, procs := range []int{4, 5} {
		wantInt := make([]int64, n)
		wantFloat := make([]float64, n)
		for r := 0; r < procs; r++ {
			for i, x := range intVec(r) {
				wantInt[i] += x
			}
			for i, x := range floatVec(r) {
				wantFloat[i] += x
			}
		}
		forEachTool(t, func(t *testing.T, name string, f mpt.Factory) {
			_, err := mpt.Run(pf, f, mpt.RunConfig{Procs: procs}, func(c *mpt.Ctx) (any, error) {
				iv, fv := intVec(c.Rank()), floatVec(c.Rank())
				gotInt, err := c.Comm.GlobalSumInt64(iv)
				switch {
				case errors.Is(err, mpt.ErrNotSupported):
				case err != nil:
					return nil, err
				case !slices.Equal(gotInt, wantInt):
					return nil, fmt.Errorf("int64 sum differs from the serial sum")
				}
				gotFloat, err := mpt.SumFloat64(c.Comm, fv)
				if err != nil {
					return nil, err
				}
				if !slices.Equal(gotFloat, wantFloat) {
					return nil, fmt.Errorf("float64 sum differs from the serial sum")
				}
				if !slices.Equal(iv, intVec(c.Rank())) || !slices.Equal(fv, floatVec(c.Rank())) {
					return nil, fmt.Errorf("global sum wrote into the caller's vector")
				}
				return nil, nil
			})
			if err != nil {
				t.Fatalf("%s procs=%d: %v", name, procs, err)
			}
		})
	}
}

// TestSendBufferReusableOnReturn overwrites the send buffer as soon as
// Send returns; the receiver must still see the original bytes, for a
// one-packet message and one that every tool fragments.
func TestSendBufferReusableOnReturn(t *testing.T) {
	pf := mustPlatform(t, "sun-ethernet")
	for _, size := range []int{13, 20_001} {
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(i*7 + 1)
		}
		forEachTool(t, func(t *testing.T, name string, f mpt.Factory) {
			res, err := mpt.Run(pf, f, mpt.RunConfig{Procs: 2}, func(c *mpt.Ctx) (any, error) {
				if c.Rank() == 1 {
					buf := slices.Clone(want)
					if err := c.Comm.Send(0, 4, buf); err != nil {
						return nil, err
					}
					for i := range buf {
						buf[i] = 0xEE
					}
					return nil, c.Comm.Send(0, 5, buf)
				}
				first, err := c.Comm.Recv(1, 4)
				if err != nil {
					return nil, err
				}
				if _, err := c.Comm.Recv(1, 5); err != nil {
					return nil, err
				}
				return first.Data, nil
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := res.Value.([]byte); !bytes.Equal(got, want) {
				t.Fatalf("%s size=%d: receiver saw the sender's later writes", name, size)
			}
		})
	}
}

// stubComm replays canned messages to Recv; only what Gather touches is
// implemented.
type stubComm struct {
	mpt.Comm
	rank, size int
	inbox      []*mpt.Message
}

func (s *stubComm) Rank() int { return s.rank }
func (s *stubComm) Size() int { return s.size }

func (s *stubComm) Recv(int, int) (*mpt.Message, error) {
	if len(s.inbox) == 0 {
		return nil, errors.New("stub: inbox empty")
	}
	m := s.inbox[0]
	s.inbox = s.inbox[1:]
	return m, nil
}

// TestGatherRejectsDuplicateEmptyContribution: p4 and Express deliver
// an empty payload as nil, so a rank that sends twice — with another
// rank's block missing — must be caught by tracking arrivals, not by
// checking for a non-nil slot.
func TestGatherRejectsDuplicateEmptyContribution(t *testing.T) {
	c := &stubComm{rank: 0, size: 3, inbox: []*mpt.Message{{Src: 1}, {Src: 1}}}
	if _, err := mpt.Gather(c, 0, 1, nil); err == nil {
		t.Fatal("gather accepted two empty contributions from rank 1 and none from rank 2")
	}
	c = &stubComm{rank: 0, size: 3, inbox: []*mpt.Message{{Src: 2}, {Src: 1}}}
	blocks, err := mpt.Gather(c, 0, 1, nil)
	if err != nil {
		t.Fatalf("one empty block per rank: %v", err)
	}
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(blocks))
	}
}
