package mpt_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"tooleval/internal/mpt"
)

// Native fuzz targets for the payload codecs. Committed corpora live
// under testdata/fuzz; run one with, e.g.,
//
//	go test -run=NONE -fuzz=FuzzXDROpaque -fuzztime=10s ./internal/mpt

// FuzzXDROpaque: appending an XDR opaque after any prefix leaves the
// prefix intact, pads with zeros to a 4-byte boundary and decodes back
// to the payload; decoding arbitrary bytes either succeeds within the
// input or fails with ErrMalformed, never panics. Decoding those bytes
// split into chunks — at cuts taken from the prefix, so through the
// 4-byte length too — gives the same result as decoding them whole.
func FuzzXDROpaque(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1}, []byte{1, 2, 3, 4, 5})
	f.Add([]byte{}, []byte{0, 0, 0, 99, 1, 2, 3, 4}) // truncated when decoded raw
	f.Add([]byte{1, 2, 3}, []byte{1, 2})
	f.Fuzz(func(t *testing.T, prefix, data []byte) {
		enc := mpt.AppendXDROpaque(bytes.Clone(prefix), data)
		if !bytes.Equal(enc[:len(prefix)], prefix) {
			t.Fatal("append overwrote the prefix")
		}
		x := enc[len(prefix):]
		if len(x) != mpt.XDROpaqueSize(len(data)) || len(x)%4 != 0 {
			t.Fatalf("encoded %d bytes for a %d-byte payload, want %d", len(x), len(data), mpt.XDROpaqueSize(len(data)))
		}
		if pad := x[4+len(data):]; bytes.Count(pad, []byte{0}) != len(pad) {
			t.Fatalf("padding %v is not zero", pad)
		}
		dec, err := mpt.XDROpaqueDecode(x)
		if err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("round trip: %v, %v", dec, err)
		}

		dec, err = mpt.XDROpaqueDecode(data)
		for _, enc := range [][]byte{x, data} {
			whole, wholeErr := mpt.XDROpaqueDecode(enc)
			parts := splitAt(enc, prefix)
			split, splitErr := mpt.XDROpaqueDecode(parts...)
			if (wholeErr == nil) != (splitErr == nil) || !bytes.Equal(whole, split) {
				t.Fatalf("decoding %d chunks of %d bytes: %v, %v; whole: %v, %v", len(parts), len(enc), split, splitErr, whole, wholeErr)
			}
		}
		if err != nil {
			if !errors.Is(err, mpt.ErrMalformed) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if len(dec) > len(data)-4 || !bytes.Equal(dec, data[4:4+len(dec)]) {
			t.Fatalf("decoded %d bytes not inside the %d-byte input", len(dec), len(data))
		}
		if len(dec) > 0 && &dec[0] == &data[4] {
			t.Fatal("decode aliases its input; the unpack must hand out a fresh buffer")
		}
	})
}

// splitAt cuts b into chunks: each byte of cuts, in turn, is the
// length of the next chunk (0 gives an empty one), and the rest of b is
// the last chunk.
func splitAt(b, cuts []byte) [][]byte {
	var parts [][]byte
	for _, c := range cuts {
		n := min(int(c)%8, len(b))
		parts = append(parts, b[:n])
		b = b[n:]
	}
	return append(parts, b)
}

// FuzzCombineSum: the in-place combines equal the decode-add-encode
// reference bit for bit, write only into acc, and reject malformed
// operands with ErrMalformed exactly when the reference decode fails.
func FuzzCombineSum(f *testing.F) {
	f.Add(mpt.EncodeInt64s([]int64{1, 2, 3}), mpt.EncodeInt64s([]int64{10, 20, 30}))
	f.Add(mpt.EncodeInt64s([]int64{math.MaxInt64, -1}), mpt.EncodeInt64s([]int64{1, math.MinInt64}))
	f.Add(mpt.EncodeFloat64s([]float64{0.5, math.Inf(1), math.NaN()}), mpt.EncodeFloat64s([]float64{-0.5, 1, 2}))
	f.Add(make([]byte, 7), make([]byte, 7))
	f.Add(make([]byte, 16), make([]byte, 8))
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, acc, peer []byte) {
		type combine struct {
			name string
			fn   func(acc, peer []byte) ([]byte, error)
			ref  func(acc, peer []byte) ([]byte, error)
		}
		for _, c := range []combine{
			{"int64", mpt.CombineSumInt64, refSumInt64},
			{"float64", mpt.CombineSumFloat64, refSumFloat64},
		} {
			want, refErr := c.ref(acc, peer)
			a, p := bytes.Clone(acc), bytes.Clone(peer)
			got, err := c.fn(a, p)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s: err %v, reference err %v", c.name, err, refErr)
			}
			if !bytes.Equal(p, peer) {
				t.Fatalf("%s: combine wrote into peer", c.name)
			}
			if err != nil {
				if !errors.Is(err, mpt.ErrMalformed) {
					t.Fatalf("%s: untyped error %v", c.name, err)
				}
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: in-place sum %v, reference %v", c.name, got, want)
			}
			if len(got) > 0 && &got[0] != &a[0] {
				t.Fatalf("%s: combine did not return acc", c.name)
			}
		}
	})
}

// refSumInt64 is the decode-add-encode combine the in-place one
// replaced.
func refSumInt64(acc, peer []byte) ([]byte, error) {
	a, err := mpt.DecodeInt64s(acc)
	if err != nil {
		return nil, err
	}
	b, err := mpt.DecodeInt64s(peer)
	if err != nil {
		return nil, err
	}
	if len(a) != len(b) {
		return nil, mpt.ErrMalformed
	}
	for i := range a {
		a[i] += b[i]
	}
	return mpt.EncodeInt64s(a), nil
}

// refSumFloat64 is refSumInt64 for float64.
func refSumFloat64(acc, peer []byte) ([]byte, error) {
	a, err := mpt.DecodeFloat64s(acc)
	if err != nil {
		return nil, err
	}
	b, err := mpt.DecodeFloat64s(peer)
	if err != nil {
		return nil, err
	}
	if len(a) != len(b) {
		return nil, mpt.ErrMalformed
	}
	for i := range a {
		a[i] += b[i]
	}
	return mpt.EncodeFloat64s(a), nil
}
