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
func EncodeInt64s(vec []int64) []byte {
	out := make([]byte, 8*len(vec))
	for i, v := range vec {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

// DecodeInt64s reverses EncodeInt64s.
func DecodeInt64s(data []byte) ([]int64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("%w: int64 payload length %d not a multiple of 8", ErrMalformed, len(data))
	}
	out := make([]int64, len(data)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out, nil
}

// EncodeFloat64s encodes vec little-endian IEEE-754.
func EncodeFloat64s(vec []float64) []byte {
	out := make([]byte, 8*len(vec))
	for i, v := range vec {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// DecodeFloat64s reverses EncodeFloat64s.
func DecodeFloat64s(data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("%w: float64 payload length %d not a multiple of 8", ErrMalformed, len(data))
	}
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out, nil
}

// EncodeUint32 appends v big-endian to dst (header fields of the daemon
// protocols).
func EncodeUint32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

// DecodeUint32 reads a big-endian uint32 at off.
func DecodeUint32(src []byte, off int) (uint32, error) {
	if off+4 > len(src) {
		return 0, fmt.Errorf("%w: short header: need 4 bytes at %d, have %d", ErrMalformed, off, len(src))
	}
	return binary.BigEndian.Uint32(src[off:]), nil
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

// XDROpaqueDecode reverses AppendXDROpaque. It returns a fresh copy of
// the payload: this is the modelled unpack into the user's buffer.
func XDROpaqueDecode(enc []byte) ([]byte, error) {
	if len(enc) < 4 {
		return nil, fmt.Errorf("%w: XDR opaque too short: %d bytes", ErrMalformed, len(enc))
	}
	n := binary.BigEndian.Uint32(enc)
	padded := (int(n) + 3) &^ 3
	if len(enc) < 4+padded {
		return nil, fmt.Errorf("%w: XDR opaque truncated: header says %d, have %d", ErrMalformed, n, len(enc)-4)
	}
	out := make([]byte, n)
	copy(out, enc[4:4+n])
	return out, nil
}

// XDROpaqueSize reports the encoded size of a payload without encoding.
func XDROpaqueSize(payloadLen int) int { return 4 + ((payloadLen + 3) &^ 3) }
