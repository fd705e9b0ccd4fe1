// Package jpeg implements the JPEG compression application of the
// paper's benchmark suite: a real baseline DCT codec (forward/inverse
// 8x8 DCT, Annex-K quantization, zigzag run-length coding, canonical
// Huffman entropy coding) plus the host-node parallel decomposition the
// paper describes — the image is split into N near-equal horizontal
// bands, the host distributes them, every node (including the host)
// compresses its band, and the host collects the compressed streams.
package jpeg

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Image is a grayscale image with 8-bit samples.
type Image struct {
	W, H int
	Pix  []byte // row-major, len W*H
}

// NewImage allocates a black image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]byte, w*h)}
}

// Synthetic produces a deterministic test image with enough structure
// (gradients, texture, edges) to exercise the codec realistically.
func Synthetic(w, h int, seed int64) *Image {
	img := NewImage(w, h)
	s := uint64(seed)*2862933555777941757 + 3037000493
	// The sine depends only on the column and the cosine only on the
	// row, so each is computed once; 48*sin*cos still multiplies left
	// to right, so the pixels are unchanged.
	sinX := make([]float64, w)
	for x := range sinX {
		sinX[x] = 48 * math.Sin(float64(x)/17.3)
	}
	for y := 0; y < h; y++ {
		cosY := math.Cos(float64(y) / 23.7)
		for x := 0; x < w; x++ {
			v := 96 +
				sinX[x]*cosY +
				0.25*float64((x+y)%128)
			if (x/64+y/64)%2 == 0 {
				v += 24
			}
			// Small deterministic zero-mean noise.
			s = s*6364136223846793005 + 1442695040888963407
			v += float64(s>>60) - 7.5
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			img.Pix[y*w+x] = byte(v)
		}
	}
	return img
}

// Band returns rows [y0, y1) as a sub-image (copy).
func (im *Image) Band(y0, y1 int) *Image {
	out := NewImage(im.W, y1-y0)
	copy(out.Pix, im.Pix[y0*im.W:y1*im.W])
	return out
}

// Encoded is a compressed band.
type Encoded struct {
	W, H    int
	Quality int
	Bits    []byte
}

// Marshal serializes an Encoded for transport through a message-passing
// tool.
func (e *Encoded) Marshal() []byte {
	out := make([]byte, 0, 16+len(e.Bits))
	out = binary.BigEndian.AppendUint32(out, uint32(e.W))
	out = binary.BigEndian.AppendUint32(out, uint32(e.H))
	out = binary.BigEndian.AppendUint32(out, uint32(e.Quality))
	out = binary.BigEndian.AppendUint32(out, uint32(len(e.Bits)))
	return append(out, e.Bits...)
}

// UnmarshalEncoded reverses Marshal.
func UnmarshalEncoded(data []byte) (*Encoded, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("jpeg: encoded band truncated: %d bytes", len(data))
	}
	e := &Encoded{
		W:       int(binary.BigEndian.Uint32(data)),
		H:       int(binary.BigEndian.Uint32(data[4:])),
		Quality: int(binary.BigEndian.Uint32(data[8:])),
	}
	n := int(binary.BigEndian.Uint32(data[12:]))
	if len(data) < 16+n {
		return nil, fmt.Errorf("jpeg: encoded band bits truncated: want %d, have %d", n, len(data)-16)
	}
	e.Bits = append([]byte(nil), data[16:16+n]...)
	return e, nil
}

// Encode compresses a grayscale image at the given quality (1..100).
func Encode(img *Image, quality int) (*Encoded, error) {
	if img.W%blockSize != 0 || img.H%blockSize != 0 {
		return nil, fmt.Errorf("jpeg: dimensions %dx%d not multiples of %d", img.W, img.H, blockSize)
	}
	q := quantTable(quality)
	var w bitWriter
	prevDC := 0
	var in, out [blockSize * blockSize]float64
	for by := 0; by < img.H; by += blockSize {
		for bx := 0; bx < img.W; bx += blockSize {
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					in[y*blockSize+x] = float64(img.Pix[(by+y)*img.W+bx+x]) - 128
				}
			}
			forwardDCT(&in, &out)
			var zz [64]int
			for i := 0; i < 64; i++ {
				zz[i] = int(math.Round(out[zigzag[i]] / float64(q[zigzag[i]])))
			}
			if err := encodeBlock(&w, dcLuminanceTable, acLuminanceTable, &zz, &prevDC); err != nil {
				return nil, err
			}
		}
	}
	return &Encoded{W: img.W, H: img.H, Quality: quality, Bits: w.flush()}, nil
}

func encodeBlock(w *bitWriter, dcTab, acTab *huffTable, zz *[64]int, prevDC *int) error {
	diff := zz[0] - *prevDC
	*prevDC = zz[0]
	cat, bits := magnitude(diff)
	if err := dcTab.encode(w, byte(cat)); err != nil {
		return err
	}
	w.write(bits, cat)
	run := 0
	for i := 1; i < 64; i++ {
		if zz[i] == 0 {
			run++
			continue
		}
		for run >= 16 {
			if err := acTab.encode(w, 0xF0); err != nil { // ZRL
				return err
			}
			run -= 16
		}
		cat, bits := magnitude(zz[i])
		if err := acTab.encode(w, byte(run<<4|cat)); err != nil {
			return err
		}
		w.write(bits, cat)
		run = 0
	}
	if run > 0 {
		if err := acTab.encode(w, 0x00); err != nil { // EOB
			return err
		}
	}
	return nil
}

// Decode decompresses an Encoded back into an image.
func Decode(enc *Encoded) (*Image, error) {
	q := quantTable(enc.Quality)
	r := bitReader{buf: enc.Bits}
	img := NewImage(enc.W, enc.H)
	prevDC := 0
	var coef, pix [blockSize * blockSize]float64
	for by := 0; by < enc.H; by += blockSize {
		for bx := 0; bx < enc.W; bx += blockSize {
			zz, err := decodeBlock(&r, dcLuminanceTable, acLuminanceTable, &prevDC)
			if err != nil {
				return nil, err
			}
			for i := 0; i < 64; i++ {
				coef[zigzag[i]] = float64(zz[i] * q[zigzag[i]])
			}
			inverseDCT(&coef, &pix)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					v := math.Round(pix[y*blockSize+x] + 128)
					if v < 0 {
						v = 0
					}
					if v > 255 {
						v = 255
					}
					img.Pix[(by+y)*enc.W+bx+x] = byte(v)
				}
			}
		}
	}
	return img, nil
}

func decodeBlock(r *bitReader, dcTab, acTab *huffTable, prevDC *int) (*[64]int, error) {
	var zz [64]int
	cat, err := dcTab.decode(r)
	if err != nil {
		return nil, err
	}
	bits, err := r.read(int(cat))
	if err != nil {
		return nil, err
	}
	*prevDC += demagnitude(int(cat), bits)
	zz[0] = *prevDC
	for i := 1; i < 64; {
		sym, err := acTab.decode(r)
		if err != nil {
			return nil, err
		}
		if sym == 0x00 { // EOB
			break
		}
		if sym == 0xF0 { // ZRL
			i += 16
			continue
		}
		run, cat := int(sym>>4), int(sym&0xF)
		i += run
		if i >= 64 {
			return nil, fmt.Errorf("jpeg: AC run overflows block")
		}
		bits, err := r.read(cat)
		if err != nil {
			return nil, err
		}
		zz[i] = demagnitude(cat, bits)
		i++
	}
	return &zz, nil
}

// PSNR computes peak signal-to-noise ratio between two equal-size images.
func PSNR(a, b *Image) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("jpeg: size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var mse float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		mse += d * d
	}
	mse /= float64(len(a.Pix))
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}
