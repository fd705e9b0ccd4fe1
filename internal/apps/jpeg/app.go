package jpeg

import (
	"bytes"
	"fmt"

	"tooleval/internal/mpt"
)

// Cost model constants: operations charged to the simulated host per unit
// of real work. OpsPerPixel covers level shift + DCT + quantization +
// entropy coding of one pixel's share of a block — calibrated against the
// single-processor JPEG times of Figures 5-8 (e.g. ~4.3 s for 512x512 on
// the Alpha).
const (
	OpsPerPixel      = 900.0
	OpsPerOutputByte = 6.0
)

// Config sizes the JPEG benchmark. The zero value is not runnable; use
// DefaultConfig.
type Config struct {
	W, H    int
	Quality int
	Seed    int64
}

// DefaultConfig is the paper-scale workload: a 512x512 image ("a vast
// amount of data" by 1995 workstation standards).
func DefaultConfig() Config { return Config{W: 512, H: 512, Quality: 75, Seed: 9} }

// Scaled shrinks the workload for fast tests while keeping block
// alignment.
func (c Config) Scaled(factor float64) Config {
	round8 := func(v int) int {
		if v < 8 {
			return 8
		}
		return v &^ 7
	}
	c.W = round8(int(float64(c.W) * factor))
	c.H = round8(int(float64(c.H) * factor))
	return c
}

// Result summarizes a compression run for verification.
type Result struct {
	CompressedBytes int
	PSNR            float64
	Bands           [][]byte // per-band compressed streams
}

// Sequential compresses the whole image on one processor and reports the
// result; it is both the 1-processor APL data point and the correctness
// reference.
func Sequential(cfg Config) (*Result, error) {
	return sequential(Synthetic(cfg.W, cfg.H, cfg.Seed), cfg.Quality)
}

// sequential compresses img on one processor.
func sequential(img *Image, quality int) (*Result, error) {
	enc, err := Encode(img, quality)
	if err != nil {
		return nil, err
	}
	dec, err := Decode(enc)
	if err != nil {
		return nil, err
	}
	psnr, err := PSNR(img, dec)
	if err != nil {
		return nil, err
	}
	return &Result{CompressedBytes: len(enc.Bits), PSNR: psnr, Bands: [][]byte{enc.Marshal()}}, nil
}

// bandRows splits h rows into n near-equal bands of whole 8-row strips;
// the first band absorbs the remainder ("one portion which can be
// slightly larger than the rest", §3.3).
func bandRows(h, n int) []int {
	strips := h / 8
	base := strips / n
	rem := strips % n
	rows := make([]int, n)
	for i := range rows {
		s := base
		if i < rem {
			s++
		}
		rows[i] = s * 8
	}
	return rows
}

// Parallel is the host-node implementation: rank 0 generates and
// scatters the image bands, all ranks (host included) compress their
// band, rank 0 collects the compressed streams. Tags: 10 = band data,
// 11 = compressed band.
func Parallel(ctx *mpt.Ctx, cfg Config) (*Result, error) {
	const (
		tagBand = 10
		tagComp = 11
	)
	n := ctx.Size()
	rows := bandRows(cfg.H, n)

	var img, myBand *Image
	if ctx.Rank() == 0 {
		img = Synthetic(cfg.W, cfg.H, cfg.Seed)
		// Distribution phase: host sends band i to rank i.
		y := rows[0]
		for r := 1; r < n; r++ {
			band := img.Band(y, y+rows[r])
			y += rows[r]
			if err := ctx.Comm.Send(r, tagBand, band.Pix); err != nil {
				return nil, fmt.Errorf("jpeg scatter to %d: %w", r, err)
			}
		}
		myBand = img.Band(0, rows[0])
	} else {
		msg, err := ctx.Comm.Recv(0, tagBand)
		if err != nil {
			return nil, fmt.Errorf("jpeg band recv: %w", err)
		}
		myBand = &Image{W: cfg.W, H: len(msg.Data) / cfg.W, Pix: msg.Data}
	}

	// Computation phase: real compression, charged to the 1995 host.
	var enc *Encoded
	if myBand.H > 0 {
		var err error
		enc, err = Encode(myBand, cfg.Quality)
		if err != nil {
			return nil, err
		}
		ctx.Charge(OpsPerPixel*float64(myBand.W*myBand.H) + OpsPerOutputByte*float64(len(enc.Bits)))
	}

	// Collection phase.
	if ctx.Rank() != 0 {
		var payload []byte
		if enc != nil {
			payload = enc.Marshal()
		}
		if err := ctx.Comm.Send(0, tagComp, payload); err != nil {
			return nil, fmt.Errorf("jpeg collect send: %w", err)
		}
		return nil, nil
	}
	bands := make([][]byte, n)
	if enc != nil {
		bands[0] = enc.Marshal()
	}
	total := len(bands[0])
	for r := 1; r < n; r++ {
		msg, err := ctx.Comm.Recv(r, tagComp)
		if err != nil {
			return nil, fmt.Errorf("jpeg collect recv from %d: %w", r, err)
		}
		bands[r] = msg.Data
		total += len(msg.Data)
	}
	// Host verifies quality by decoding all bands (not charged: this is
	// harness-side verification, not part of the benchmarked pipeline).
	recon := NewImage(cfg.W, cfg.H)
	y := 0
	for _, b := range bands {
		if len(b) == 0 {
			continue
		}
		e, err := UnmarshalEncoded(b)
		if err != nil {
			return nil, err
		}
		dec, err := Decode(e)
		if err != nil {
			return nil, err
		}
		copy(recon.Pix[y*cfg.W:], dec.Pix)
		y += e.H
	}
	psnr, err := PSNR(img, recon)
	if err != nil {
		return nil, err
	}
	headerBytes := 16 * n
	return &Result{CompressedBytes: total - headerBytes, PSNR: psnr, Bands: bands}, nil
}

// VerifyAgainstSequential checks that the parallel result is equivalent
// to the sequential reference: same reconstruction quality regime and,
// band-for-band, identical bits to compressing those bands directly.
func VerifyAgainstSequential(cfg Config, par *Result) error {
	if par == nil {
		return fmt.Errorf("jpeg: nil parallel result")
	}
	img := Synthetic(cfg.W, cfg.H, cfg.Seed)
	seq, err := sequential(img, cfg.Quality)
	if err != nil {
		return err
	}
	if par.PSNR < 28 {
		return fmt.Errorf("jpeg: parallel PSNR %.1f dB too low", par.PSNR)
	}
	if d := par.PSNR - seq.PSNR; d > 1.5 || d < -1.5 {
		return fmt.Errorf("jpeg: PSNR diverged: parallel %.2f vs sequential %.2f", par.PSNR, seq.PSNR)
	}
	// Band-level determinism: each band stream must equal an independent
	// encode of that band.
	rows := bandRows(cfg.H, len(par.Bands))
	y := 0
	for i, b := range par.Bands {
		h := rows[i]
		if h == 0 {
			if len(b) != 0 {
				return fmt.Errorf("jpeg: band %d should be empty", i)
			}
			continue
		}
		want, err := Encode(img.Band(y, y+h), cfg.Quality)
		if err != nil {
			return err
		}
		y += h
		got, err := UnmarshalEncoded(b)
		if err != nil {
			return err
		}
		if !bytes.Equal(got.Bits, want.Bits) {
			return fmt.Errorf("jpeg: band %d bits differ from direct encode", i)
		}
	}
	return nil
}
