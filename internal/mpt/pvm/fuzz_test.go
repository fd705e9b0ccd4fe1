package pvm

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzFragBytes is a small fragment size so arbitrary headers (nfrags up
// to 65535) keep reassembly buffers small.
const fuzzFragBytes = 8

// FuzzFragFrame drives fragment validation and in-place reassembly with
// two arbitrary frames, the second joining the stream the first opened.
// A frame is either rejected with errBadFrag — leaving the reassembly
// buffer untouched — or its chunk lands exactly at frag×FragBytes and
// nowhere else. Never a panic. Run it with
//
//	go test -run=NONE -fuzz=FuzzFragFrame -fuzztime=10s ./internal/mpt/pvm
func FuzzFragFrame(f *testing.F) {
	chunk := []byte("abcdefgh")
	f.Add(encodeFrag(7, 0, 2, 1, 2, -5, chunk), encodeFrag(7, 1, 2, 1, 2, -5, chunk[:3]))
	f.Add(encodeFrag(7, 1, 2, 1, 2, -5, chunk[:3]), encodeFrag(7, 0, 2, 1, 2, -5, chunk))
	f.Add(encodeFrag(1, 0, 1, 0, 1, 3, nil), encodeFrag(1, 0, 1, 0, 1, 3, nil))
	f.Add(encodeFrag(7, 0, 3, 1, 2, 0, chunk), encodeFrag(7, 1, 4, 1, 2, 0, chunk))     // nfrags disagrees
	f.Add(encodeFrag(7, 0, 3, 1, 2, 0, chunk), encodeFrag(7, 1, 3, 1, 2, 0, chunk[:5])) // short middle chunk
	f.Add(encodeFrag(7, 2, 2, 1, 2, 0, chunk), encodeAck(7, 0))                         // frag out of range
	f.Add(encodeFrag(7, 0, 1, 1, 2, 0, chunk)[:20], []byte{kindFrag})                   // truncated
	f.Fuzz(func(t *testing.T, first, second []byte) {
		var st *inStream
		for _, frame := range [][]byte{first, second} {
			h, chunk, err := decodeFrag(frame, fuzzFragBytes)
			if err == nil && st != nil && !st.joins(h) {
				err = errBadFrag
			}
			if err != nil {
				if !errors.Is(err, errBadFrag) {
					t.Fatalf("untyped error %v", err)
				}
				continue
			}
			if st == nil {
				st = newInStream(h, chunk, fuzzFragBytes)
			}
			before := bytes.Clone(st.buf)
			dup := st.got[h.frag]
			if added := st.add(h.frag, chunk, fuzzFragBytes); added == dup {
				t.Fatalf("add = %v for a fragment already received = %v", added, dup)
			}
			lo := h.frag * fuzzFragBytes
			hi := lo + len(chunk)
			if dup {
				hi = lo
			} else if !bytes.Equal(st.buf[lo:hi], chunk) {
				t.Fatalf("fragment %d not at its slot", h.frag)
			}
			if !bytes.Equal(st.buf[:lo], before[:lo]) || !bytes.Equal(st.buf[hi:], before[hi:]) {
				t.Fatalf("fragment %d overwrote a neighbour", h.frag)
			}
			if st.complete() {
				if n := len(st.payload()); n < (h.nfrags-1)*fuzzFragBytes || n > h.nfrags*fuzzFragBytes {
					t.Fatalf("reassembled %d bytes from %d fragments of %d", n, h.nfrags, fuzzFragBytes)
				}
			}
		}
	})
}
