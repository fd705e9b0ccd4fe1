package store

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"testing"

	"tooleval/internal/runner"
)

// frameRecord wraps a payload in the segment file's record frame:
// length prefix, payload, CRC-32C, as Fill writes it.
func frameRecord(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = append(frame, payload...)
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crcTable))
}

// FuzzStorePayload feeds arbitrary bytes to the segment record decoder,
// both framed (decodeRecord) and bare (decodePayload). Neither may
// panic, a decoded frame may not claim more bytes than it was given,
// and an accepted key and result, re-encoded with appendPayload,
// decode back to the same values. Scale and Value compare by their
// bits: a NaN scale decodes to a key unequal to itself.
func FuzzStorePayload(f *testing.F) {
	// The records a store really writes, read back from its segment.
	dir := f.TempDir()
	s, err := Open(dir, testEngine)
	if err != nil {
		f.Fatal(err)
	}
	for i := range 4 {
		s.Fill(cellKey(i), cellRes(i))
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(s.Path())
	if err != nil {
		f.Fatal(err)
	}
	for blob := seg[headerSize:]; len(blob) > 0; {
		n, _, _, ok := decodeRecord(blob)
		if !ok {
			f.Fatalf("segment record at %d does not decode", len(seg)-len(blob))
		}
		f.Add(blob[:n])
		blob = blob[n:]
	}
	payload := appendPayload(nil, cellKey(5), cellRes(5))
	f.Add(payload)
	f.Add(payload[:len(payload)-1])
	f.Add(frameRecord(payload)[:len(payload)])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if n, key, res, ok := decodeRecord(data); ok {
			if n < 8 || n > len(data) {
				t.Fatalf("decodeRecord consumed %d of %d bytes", n, len(data))
			}
			checkPayloadRoundTrip(t, key, res)
		}
		if key, res, ok := decodePayload(data); ok {
			checkPayloadRoundTrip(t, key, res)
		}
	})
}

func checkPayloadRoundTrip(t *testing.T, key runner.Key, res runner.CellResult) {
	t.Helper()
	key2, res2, ok := decodePayload(appendPayload(nil, key, res))
	if !ok {
		t.Fatalf("re-encoded payload of %+v %+v does not decode", key, res)
	}
	a, b := key, key2
	a.Scale, b.Scale = 0, 0
	if a != b || math.Float64bits(key2.Scale) != math.Float64bits(key.Scale) ||
		math.Float64bits(res2.Value) != math.Float64bits(res.Value) || res2.Virtual != res.Virtual {
		t.Fatalf("round trip: %+v %+v decoded as %+v %+v", key, res, key2, res2)
	}
}
