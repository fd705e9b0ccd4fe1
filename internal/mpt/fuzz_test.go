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

// FuzzCombineSum: adding an encoded peer into a typed vector in place,
// as the global sum's parents do, equals the decode-add reference
// element by element, never writes the peer's bytes, and fails with
// ErrMalformed, leaving the vector as it was, exactly when the lengths
// disagree. The vector is acc's whole 8-byte words.
func FuzzCombineSum(f *testing.F) {
	f.Add(mpt.EncodeInt64s([]int64{1, 2, 3}), mpt.EncodeInt64s([]int64{10, 20, 30}))
	f.Add(mpt.EncodeInt64s([]int64{math.MaxInt64, -1}), mpt.EncodeInt64s([]int64{1, math.MinInt64}))
	f.Add(mpt.EncodeFloat64s([]float64{0.5, math.Inf(1), math.NaN()}), mpt.EncodeFloat64s([]float64{-0.5, 1, 2}))
	f.Add(make([]byte, 7), make([]byte, 7))
	f.Add(make([]byte, 16), make([]byte, 8))
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, acc, peer []byte) {
		words := acc[:len(acc)&^7]
		mismatch := len(peer) != len(words)
		checkAddEncoded(t, "int64", words, peer, mismatch, mpt.DecodeInt64s, mpt.EncodeInt64s)
		checkAddEncoded(t, "float64", words, peer, mismatch, mpt.DecodeFloat64s, mpt.EncodeFloat64s)
	})
}

// checkAddEncoded runs mpt.AddEncoded on the vector that words encode
// and checks it against the decode-add reference. Each element must
// match bit for bit, except that a NaN sum need only be NaN on both
// sides: Go leaves the payload of NaN + NaN unspecified.
func checkAddEncoded[T int64 | float64](t *testing.T, elem string, words, peer []byte, mismatch bool,
	decode func([]byte) ([]T, error), encode func([]T) []byte) {
	t.Helper()
	vec, err := decode(words)
	if err != nil {
		t.Fatal(err)
	}
	p := bytes.Clone(peer)
	err = mpt.AddEncoded(vec, p)
	if !bytes.Equal(p, peer) {
		t.Fatalf("%s: the add wrote into peer", elem)
	}
	if mismatch {
		if !errors.Is(err, mpt.ErrMalformed) {
			t.Fatalf("%s: lengths %d and %d disagree, err = %v; want ErrMalformed", elem, len(words), len(peer), err)
		}
		if !bytes.Equal(encode(vec), words) {
			t.Fatalf("%s: a refused add changed the vector", elem)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: lengths agree, err = %v", elem, err)
	}
	want, err := decode(words)
	if err != nil {
		t.Fatal(err)
	}
	other, err := decode(peer)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] += other[i]
		if bothNaN := want[i] != want[i] && vec[i] != vec[i]; !bothNaN && !bytes.Equal(encode(vec[i:i+1]), encode(want[i:i+1])) {
			t.Fatalf("%s: element %d: in-place sum %v, reference %v", elem, i, vec[i], want[i])
		}
	}
}
