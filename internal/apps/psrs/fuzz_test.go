package psrs

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecords feeds arbitrary bytes to the record decoder. It must
// not panic, must reject every length that is not a whole number of
// records, and every input it accepts must re-encode to the same bytes,
// so no damaged payload byte goes unnoticed. The committed corpus under
// testdata/fuzz holds the codecCases rows.
func FuzzDecodeRecords(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, recordBytes uint8) {
		rb := max(int(recordBytes), 8)
		keys, err := decodeRecords(nil, data, int(recordBytes))
		if len(data)%rb != 0 {
			if err == nil {
				t.Fatalf("accepted %d bytes as records of %d", len(data), rb)
			}
			return
		}
		if err != nil {
			return
		}
		if enc := encodeRecords(nil, keys, int(recordBytes)); !bytes.Equal(enc, data) {
			t.Fatalf("accepted input re-encodes to different bytes:\n got %x\nwant %x", enc, data)
		}
	})
}
