package mpt

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Codec helpers used by applications and tools to move typed data through
// []byte message payloads. The native encoding is little-endian; PVM's
// XDR wire format (big-endian, 4-byte aligned) is implemented separately
// because the paper charges PVM for its encode/decode pass.

// EncodeInt64s encodes vec little-endian.
func EncodeInt64s(vec []int64) []byte { return encodeWords(vec) }

// DecodeInt64s reverses EncodeInt64s.
func DecodeInt64s(data []byte) ([]int64, error) { return decodeWords[int64](data) }

// EncodeFloat64s encodes vec little-endian IEEE-754.
func EncodeFloat64s(vec []float64) []byte { return encodeWords(vec) }

// DecodeFloat64s reverses EncodeFloat64s.
func DecodeFloat64s(data []byte) ([]float64, error) { return decodeWords[float64](data) }

// word is an element type the codecs move as one little-endian 8-byte
// word. Each helper below switches on the slice type once, outside its
// loop, so each loop runs on the concrete type.
type word interface{ int64 | float64 }

func encodeWords[T word](vec []T) []byte {
	out := make([]byte, 8*len(vec))
	switch v := any(vec).(type) {
	case []int64:
		for i, x := range v {
			binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
		}
	case []float64:
		for i, x := range v {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
		}
	}
	return out
}

func decodeWords[T word](data []byte) ([]T, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("%w: %T payload length %d not a multiple of 8", ErrMalformed, T(0), len(data))
	}
	out := make([]T, len(data)/8)
	return out, decodeInto(out, data)
}

// decodeInto decodes data into vec, which must hold exactly its words:
// the unpack into a buffer the caller already owns.
func decodeInto[T word](vec []T, data []byte) error {
	if err := checkWords(vec, data); err != nil {
		return err
	}
	switch v := any(vec).(type) {
	case []int64:
		for i := range v {
			v[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
	case []float64:
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
	}
	return nil
}

// addEncoded adds the encoded peer into vec element by element, as
// vec[i] += peer[i], without decoding peer into a vector of its own. It
// never writes peer, and leaves vec unchanged when the lengths differ.
func addEncoded[T word](vec []T, peer []byte) error {
	if err := checkWords(vec, peer); err != nil {
		return err
	}
	switch v := any(vec).(type) {
	case []int64:
		for i := range v {
			v[i] += int64(binary.LittleEndian.Uint64(peer[8*i:]))
		}
	case []float64:
		// a is loaded before the add, as in the decode-add reference, so
		// that the two compile alike and agree even on which payload
		// survives a NaN + NaN; FuzzCombineSum compares the bits.
		for i, a := range v {
			v[i] = a + math.Float64frombits(binary.LittleEndian.Uint64(peer[8*i:]))
		}
	}
	return nil
}

// checkWords reports ErrMalformed unless data encodes exactly len(vec)
// words.
func checkWords[T word](vec []T, data []byte) error {
	if len(data) != 8*len(vec) {
		return fmt.Errorf("%w: %T vector of %d elements against a %d-byte payload", ErrMalformed, T(0), len(vec), len(data))
	}
	return nil
}

// AppendXDROpaque appends data to dst as an XDR opaque: 4-byte
// big-endian length, payload, zero padding to a 4-byte boundary. This is
// the real pass PVM makes over every outgoing buffer; the simulation both
// performs it (the bytes on the simulated wire are XDR bytes) and charges
// CPU time for it. Appending lets a sender write its envelope and the
// encoding into one buffer: size dst with XDROpaqueSize to avoid a grow.
func AppendXDROpaque(dst, data []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(data)))
	dst = append(dst, data...)
	return append(dst, xdrPad[:(4-len(data)%4)%4]...)
}

var xdrPad [3]byte

// XDROpaqueDecode reverses AppendXDROpaque. The encoding is the
// concatenation of enc's chunks, so a message that arrived in fragments
// decodes without first being gathered into one buffer; the length
// field may straddle chunks. It returns a fresh copy of the payload:
// this is the modelled unpack into the user's buffer.
func XDROpaqueDecode(enc ...[]byte) ([]byte, error) {
	total := 0
	for _, c := range enc {
		total += len(c)
	}
	if total < 4 {
		return nil, fmt.Errorf("%w: XDR opaque too short: %d bytes", ErrMalformed, total)
	}
	var hdr [4]byte
	gather(hdr[:], enc, 0)
	n := binary.BigEndian.Uint32(hdr[:])
	padded := (int(n) + 3) &^ 3
	if total < 4+padded {
		return nil, fmt.Errorf("%w: XDR opaque truncated: header says %d, have %d", ErrMalformed, n, total-4)
	}
	out := make([]byte, n)
	gather(out, enc, 4)
	return out, nil
}

// gather fills dst from the concatenation of chunks, starting off bytes
// in; the chunks must hold off+len(dst) bytes.
func gather(dst []byte, chunks [][]byte, off int) {
	for _, c := range chunks {
		if len(dst) == 0 {
			return
		}
		if off >= len(c) {
			off -= len(c)
			continue
		}
		dst = dst[copy(dst, c[off:]):]
		off = 0
	}
}

// XDROpaqueSize reports the encoded size of a payload without encoding.
func XDROpaqueSize(payloadLen int) int { return 4 + ((payloadLen + 3) &^ 3) }
