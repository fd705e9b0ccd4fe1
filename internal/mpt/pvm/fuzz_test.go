package pvm

import (
	"errors"
	"slices"
	"testing"
)

// fuzzFragBytes is a small fragment size, so short frames exercise
// every length rule of decodeFrag.
const fuzzFragBytes = 8

// wireFrag is a fragment's wire form: its header followed by its chunk.
func wireFrag(msgid uint32, frag, nfrags, srcTask, dstTask, tag int, chunk []byte) []byte {
	return append(encodeFrag(msgid, frag, nfrags, srcTask, dstTask, tag, len(chunk)), chunk...)
}

// splitFrag reads a wire frame as the daemon receives it: the first
// fragHeaderLen bytes (fewer if the frame is shorter) are the header,
// the rest is the chunk.
func splitFrag(frame []byte) (hdr, chunk []byte) {
	n := min(len(frame), fragHeaderLen)
	return frame[:n], frame[n:]
}

// FuzzFragFrame drives fragment validation and chunk collection with
// two arbitrary frames, the second joining the stream the first opened.
// Each frame is read as a header followed by its chunk (splitFrag). A
// frame is either rejected with errBadFrag — leaving the stream
// unchanged — or its chunk lands, by reference, in slot frag and
// nowhere else. Never a panic. Run it with
//
//	go test -run=NONE -fuzz=FuzzFragFrame -fuzztime=10s ./internal/mpt/pvm
func FuzzFragFrame(f *testing.F) {
	chunk := []byte("abcdefgh")
	f.Add(wireFrag(7, 0, 2, 1, 2, -5, chunk), wireFrag(7, 1, 2, 1, 2, -5, chunk[:3]))
	f.Add(wireFrag(7, 1, 2, 1, 2, -5, chunk[:3]), wireFrag(7, 0, 2, 1, 2, -5, chunk))
	f.Add(wireFrag(1, 0, 1, 0, 1, 3, nil), wireFrag(1, 0, 1, 0, 1, 3, nil))
	f.Add(wireFrag(7, 0, 3, 1, 2, 0, chunk), wireFrag(7, 1, 4, 1, 2, 0, chunk))     // nfrags disagrees
	f.Add(wireFrag(7, 0, 3, 1, 2, 0, chunk), wireFrag(7, 1, 3, 1, 2, 0, chunk[:5])) // short middle chunk
	f.Add(wireFrag(7, 2, 2, 1, 2, 0, chunk), encodeAck(7, 0))                       // frag out of range
	f.Add(wireFrag(7, 0, 1, 1, 2, 0, chunk)[:20], []byte{kindFrag})                 // truncated
	f.Fuzz(func(t *testing.T, first, second []byte) {
		var st *inStream
		for _, frame := range [][]byte{first, second} {
			hdr, chunk := splitFrag(frame)
			var before inStream
			if st != nil {
				before = snapshot(st)
			}
			h, err := decodeFrag(hdr, chunk, fuzzFragBytes)
			if err == nil && st != nil && !st.joins(h) {
				err = errBadFrag
			}
			if err != nil {
				if !errors.Is(err, errBadFrag) {
					t.Fatalf("untyped error %v", err)
				}
				if st != nil && !sameStream(st, &before) {
					t.Fatal("a rejected frame changed the stream")
				}
				continue
			}
			if st == nil {
				st = newInStream(h)
				before = snapshot(st)
			}
			dup := st.got[h.frag]
			if added := st.add(h.frag, chunk); added == dup {
				t.Fatalf("add = %v for a fragment already received = %v", added, dup)
			}
			if !dup {
				got := st.chunks[h.frag]
				if len(got) != len(chunk) || len(chunk) > 0 && &got[0] != &chunk[0] {
					t.Fatalf("fragment %d's chunk is not in its slot by reference", h.frag)
				}
				if !st.got[h.frag] || st.size != before.size+len(chunk) || st.count != before.count+1 {
					t.Fatalf("fragment %d: got=%v size %d→%d count %d→%d", h.frag, st.got[h.frag], before.size, st.size, before.count, st.count)
				}
				// Restore the slot, so the rest must equal the snapshot.
				before.got[h.frag], before.chunks[h.frag] = true, chunk
				before.size, before.count = st.size, st.count
			}
			if !sameStream(st, &before) {
				t.Fatalf("fragment %d touched another slot", h.frag)
			}
			if st.complete() {
				if n := st.size; n < (h.nfrags-1)*fuzzFragBytes || n > h.nfrags*fuzzFragBytes {
					t.Fatalf("collected %d bytes from %d fragments of %d", n, h.nfrags, fuzzFragBytes)
				}
			}
		}
	})
}

// snapshot copies a stream's slots, so a later change to it shows.
func snapshot(st *inStream) inStream {
	c := *st
	c.got = slices.Clone(st.got)
	c.chunks = slices.Clone(st.chunks)
	return c
}

// sameStream reports whether a and b agree on every field and on every
// slot, chunk identity included.
func sameStream(a, b *inStream) bool {
	if a.hdr != b.hdr || a.size != b.size || a.count != b.count || !slices.Equal(a.got, b.got) || len(a.chunks) != len(b.chunks) {
		return false
	}
	for i := range a.chunks {
		x, y := a.chunks[i], b.chunks[i]
		if len(x) != len(y) || len(x) > 0 && &x[0] != &y[0] {
			return false
		}
	}
	return true
}
