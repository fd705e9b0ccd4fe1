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

// TestBcastResultsAreIndependent: rank 1 writes into its Bcast result;
// no other rank's result and not the root's buffer may change. Every
// tool's user-facing Bcast copies once per hop, so no rank's result is
// shared with another's, although the global sum's tree sends hand
// their buffers on by reference.
func TestBcastResultsAreIndependent(t *testing.T) {
	pf := mustPlatform(t, "sun-ethernet")
	want := make([]byte, 9_000)
	for i := range want {
		want[i] = byte(i%251 + 1)
	}
	forEachTool(t, func(t *testing.T, name string, f mpt.Factory) {
		_, err := mpt.Run(pf, f, mpt.RunConfig{Procs: 4}, func(c *mpt.Ctx) (any, error) {
			var data []byte
			if c.Rank() == 0 {
				data = slices.Clone(want)
			}
			got, err := c.Comm.Bcast(0, 3, data)
			if err != nil {
				return nil, err
			}
			if c.Rank() == 1 {
				clear(got)
			}
			if err := c.Comm.Barrier(); err != nil {
				return nil, err
			}
			if c.Rank() == 0 && !bytes.Equal(data, want) {
				return nil, fmt.Errorf("the root's buffer changed after rank 1 wrote into its result")
			}
			if c.Rank() != 1 && !bytes.Equal(got, want) {
				return nil, fmt.Errorf("rank %d result changed after rank 1 wrote into its own", c.Rank())
			}
			return nil, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	})
}

// TestGlobalSumResultsAreIndependent: every rank decodes the shared
// broadcast of the reduced sum into a vector of its own, so rank 1
// writing into its result leaves every other rank's result intact. PVM,
// which has no global operation, reaches the float sum through the
// SumFloat64 fallback.
func TestGlobalSumResultsAreIndependent(t *testing.T) {
	pf := mustPlatform(t, "sun-ethernet")
	const procs, n = 4, 1_000
	// Σ_r (r+i) over procs ranks.
	wantInt := make([]int64, n)
	wantFloat := make([]float64, n)
	for i := range wantInt {
		wantInt[i] = int64(procs*i + procs*(procs-1)/2)
		wantFloat[i] = float64(wantInt[i])
	}
	forEachTool(t, func(t *testing.T, name string, f mpt.Factory) {
		_, err := mpt.Run(pf, f, mpt.RunConfig{Procs: procs}, func(c *mpt.Ctx) (any, error) {
			iv := make([]int64, n)
			fv := make([]float64, n)
			for i := range iv {
				iv[i] = int64(c.Rank() + i)
				fv[i] = float64(iv[i])
			}
			gotInt, err := c.Comm.GlobalSumInt64(iv)
			hasInt := !errors.Is(err, mpt.ErrNotSupported)
			if hasInt && err != nil {
				return nil, err
			}
			gotFloat, err := mpt.SumFloat64(c.Comm, fv)
			if err != nil {
				return nil, err
			}
			if c.Rank() == 1 {
				clear(gotInt)
				clear(gotFloat)
			}
			if err := c.Comm.Barrier(); err != nil {
				return nil, err
			}
			if c.Rank() != 1 && (hasInt && !slices.Equal(gotInt, wantInt) || !slices.Equal(gotFloat, wantFloat)) {
				return nil, fmt.Errorf("rank %d sum changed after rank 1 wrote into its own", c.Rank())
			}
			return nil, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	})
}
