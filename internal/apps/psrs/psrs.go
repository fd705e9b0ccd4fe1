// Package psrs implements Parallel Sorting by Regular Sampling, the
// sorting application of the paper's benchmark suite (§3.3: "PSRS
// partitions the data into ordered subsets of approximately equal size
// ... computation and communication requirements are data dependent").
//
// The algorithm is the real one: local sort, regular sampling, pivot
// selection at rank 0, broadcast of pivots, partition exchange
// (all-to-all), and a final merge of the received runs.
package psrs

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"tooleval/internal/mpt"
)

// Cost model: operations per record for the local sort (~c·n·log₂n), the
// partition scan, and the final merge — calibrated against the
// single-processor sorting times of Figures 5-8. Records are key +
// payload (the paper's "huge amount of data"), so the exchange moves
// real bulk through the tools.
const (
	SortOpsPerKeyLog = 12.0
	MergeOpsPerKey   = 16.0
	ScanOpsPerKey    = 3.0
)

// Config sizes the benchmark.
type Config struct {
	// Records is the number of records; each carries an int64 key plus
	// payload padding up to RecordBytes.
	Records     int
	RecordBytes int
	Seed        int64
}

// DefaultConfig is the paper-scale workload (~19 MB of 64-byte records;
// ~0.8-1.2 s local sort on the Alpha).
func DefaultConfig() Config { return Config{Records: 300_000, RecordBytes: 64, Seed: 31} }

// Scaled shrinks the record count.
func (c Config) Scaled(factor float64) Config {
	c.Records = int(float64(c.Records) * factor)
	if c.Records < 64 {
		c.Records = 64
	}
	return c
}

// Result summarizes the sorted output for verification without shipping
// the entire array around: total count, global min/max, a positional
// checksum, and a multiset fingerprint.
type Result struct {
	Count        int
	Min, Max     int64
	OrderedCheck uint64 // depends on the sorted order
	MultisetSum  uint64 // order-independent fingerprint
	PartSizes    []int  // keys per rank after exchange
}

// generate produces the deterministic input keys for rank r of p (the
// same global multiset regardless of p).
func generate(cfg Config, r, p int) []int64 {
	share, rem := cfg.Records/p, cfg.Records%p
	n := share
	if r < rem {
		n++
	}
	start := r*share + min(r, rem)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = keyAt(cfg, start+i)
	}
	return keys
}

// keyAt is the input key at global index gi. Hashing the index lets any
// rank jump straight to its own region of the input.
func keyAt(cfg Config, gi int) int64 {
	s := uint64(cfg.Seed) * 0x9E3779B97F4A7C15
	x := (uint64(gi) + 1) * (s | 1)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return int64(x % 1_000_000_007)
}

// payloadWord derives a record's payload pattern from its key, so the
// receiver can verify the bulk bytes really made it through the tool
// intact.
func payloadWord(key int64) uint64 {
	x := uint64(key) * 0xD6E8FEB86659FD93
	x ^= x >> 32
	return x*0xD6E8FEB86659FD93 + 0x2545F4914F6CDD1D
}

// encodeRecords serializes records as 8-byte big-endian keys each
// followed by recordBytes-8 payload bytes derived from the key: payload
// byte j is byte j%8 of payloadWord(key), so each whole 8-byte payload
// word is the little-endian payloadWord. It overwrites buf, growing it
// only when its capacity is too small, and returns the encoded slice.
func encodeRecords(buf []byte, keys []int64, recordBytes int) []byte {
	if recordBytes < 8 {
		recordBytes = 8
	}
	n := len(keys) * recordBytes
	out := slices.Grow(buf[:0], n)[:n]
	words := (recordBytes - 8) / 8
	for i, k := range keys {
		rec := out[i*recordBytes : (i+1)*recordBytes]
		binary.BigEndian.PutUint64(rec, uint64(k))
		w := payloadWord(k)
		payload := rec[8:]
		for j := 0; j < words; j++ {
			binary.LittleEndian.PutUint64(payload[8*j:], w)
		}
		for j := 8 * words; j < len(payload); j++ {
			payload[j] = byte(w >> (8 * (j % 8)))
		}
	}
	return out
}

// decodeRecords reverses encodeRecords, verifying every payload byte,
// and appends the decoded keys to dst.
func decodeRecords(dst []int64, data []byte, recordBytes int) ([]int64, error) {
	if recordBytes < 8 {
		recordBytes = 8
	}
	if len(data)%recordBytes != 0 {
		return nil, fmt.Errorf("psrs: record payload length %d not a multiple of %d", len(data), recordBytes)
	}
	n := len(data) / recordBytes
	dst = slices.Grow(dst, n)
	keys := dst[len(dst) : len(dst)+n]
	words := (recordBytes - 8) / 8
	for i := range keys {
		rec := data[i*recordBytes : (i+1)*recordBytes]
		keys[i] = int64(binary.BigEndian.Uint64(rec))
		w := payloadWord(keys[i])
		payload := rec[8:]
		for j := 0; j < words; j++ {
			if got := binary.LittleEndian.Uint64(payload[8*j:]); got != w {
				// The lowest differing byte of the word is the first
				// corrupted one, as a byte-by-byte scan would report.
				return nil, fmt.Errorf("psrs: record %d payload corrupted at byte %d", i, 8*j+bits.TrailingZeros64(got^w)/8)
			}
		}
		for j := 8 * words; j < len(payload); j++ {
			if payload[j] != byte(w>>(8*(j%8))) {
				return nil, fmt.Errorf("psrs: record %d payload corrupted at byte %d", i, j)
			}
		}
	}
	return dst[:len(dst)+n], nil
}

func fingerprint(sorted []int64) (ordered, multiset uint64) {
	for i, k := range sorted {
		ordered = ordered*1099511628211 + uint64(k) + uint64(i)
		multiset += multisetTerm(k)
	}
	return ordered, multiset
}

// multisetTerm is one key's share of the multiset fingerprint, a sum of
// per-key terms and so independent of order.
func multisetTerm(k int64) uint64 {
	x := uint64(k) * 0x9E3779B97F4A7C15
	return x ^ x>>29
}

// Sequential sorts the whole input on one processor.
func Sequential(cfg Config) (*Result, error) {
	keys := generate(cfg, 0, 1)
	slices.Sort(keys)
	return summarize(keys, []int{len(keys)})
}

// reference computes the fields of Sequential's result that do not
// depend on order — Count, Min, Max and MultisetSum — in one pass over
// the generator, without materializing or sorting the input.
func reference(cfg Config) (Result, error) {
	if cfg.Records <= 0 {
		return Result{}, fmt.Errorf("psrs: empty output")
	}
	ref := Result{Count: cfg.Records, Min: math.MaxInt64, Max: math.MinInt64}
	for gi := 0; gi < cfg.Records; gi++ {
		k := keyAt(cfg, gi)
		ref.Min = min(ref.Min, k)
		ref.Max = max(ref.Max, k)
		ref.MultisetSum += multisetTerm(k)
	}
	return ref, nil
}

func summarize(sorted []int64, parts []int) (*Result, error) {
	if len(sorted) == 0 {
		return nil, fmt.Errorf("psrs: empty output")
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			return nil, fmt.Errorf("psrs: output not sorted at %d", i)
		}
	}
	o, m := fingerprint(sorted)
	return &Result{
		Count: len(sorted), Min: sorted[0], Max: sorted[len(sorted)-1],
		OrderedCheck: o, MultisetSum: m, PartSizes: parts,
	}, nil
}

// Parallel is the PSRS implementation. Tags: 30 = samples, 31 = pivots
// (bcast), 32 = partition exchange, 33 = result summaries.
func Parallel(ctx *mpt.Ctx, cfg Config) (*Result, error) {
	const (
		tagSamples  = 30
		tagPivots   = 31
		tagExchange = 32
		tagSummary  = 33
	)
	p, me := ctx.Size(), ctx.Rank()
	if cfg.Records < p {
		// Some rank would hold no key to sample. Every rank sees the
		// same count, so all of them stop here, before any message.
		return nil, fmt.Errorf("psrs: %d records cannot give each of %d ranks a key", cfg.Records, p)
	}
	keys := generate(cfg, me, p)

	// Phase 1: local sort (real) + charge. The sort's scratch buffer
	// becomes the merge's input buffer in Phase 5.
	tmp := sortKeys(keys, nil)
	n := float64(len(keys))
	if len(keys) > 1 {
		ctx.Charge(SortOpsPerKeyLog * n * log2(n))
	}

	if p == 1 {
		return summarize(keys, []int{len(keys)})
	}

	// Phase 2: regular sampling — p samples per rank.
	samples := make([]int64, p)
	for i := 0; i < p; i++ {
		idx := i * len(keys) / p
		if idx >= len(keys) {
			idx = len(keys) - 1
		}
		samples[i] = keys[idx]
	}
	if me != 0 {
		if err := ctx.Comm.Send(0, tagSamples, mpt.EncodeInt64s(samples)); err != nil {
			return nil, fmt.Errorf("psrs samples send: %w", err)
		}
	}

	// Phase 3: rank 0 sorts all samples, picks p-1 pivots, broadcasts.
	var pivots []int64
	if me == 0 {
		all := append([]int64(nil), samples...)
		for r := 1; r < p; r++ {
			msg, err := ctx.Comm.Recv(r, tagSamples)
			if err != nil {
				return nil, fmt.Errorf("psrs samples recv: %w", err)
			}
			s, err := mpt.DecodeInt64s(msg.Data)
			if err != nil {
				return nil, err
			}
			all = append(all, s...)
		}
		slices.Sort(all)
		ctx.Charge(SortOpsPerKeyLog * float64(len(all)) * log2(float64(len(all))))
		pivots = make([]int64, p-1)
		for i := 1; i < p; i++ {
			pivots[i-1] = all[i*p+p/2-1]
		}
	}
	pb, err := ctx.Comm.Bcast(0, tagPivots, mpt.EncodeInt64s(pivots))
	if err != nil {
		return nil, fmt.Errorf("psrs pivot bcast: %w", err)
	}
	pivots, err = mpt.DecodeInt64s(pb)
	if err != nil {
		return nil, err
	}

	// Phase 4: partition local keys by pivot and exchange.
	bounds := make([]int, p+1)
	bounds[p] = len(keys)
	for i, pv := range pivots {
		bounds[i+1] = sort.Search(len(keys), func(k int) bool { return keys[k] > pv })
	}
	// sort.Search can give non-monotonic bounds only if pivots are
	// unsorted; they are sorted by construction.
	ctx.Charge(ScanOpsPerKey * n)
	// Send copies its buffer before returning, so one buffer, sized for
	// the widest outgoing partition, serves every destination.
	rb := max(cfg.RecordBytes, 8)
	widest := 0
	for dst := 0; dst < p; dst++ {
		if dst != me {
			widest = max(widest, bounds[dst+1]-bounds[dst])
		}
	}
	buf := make([]byte, 0, widest*rb)
	for off := 1; off < p; off++ {
		dst := (me + off) % p
		buf = encodeRecords(buf, keys[bounds[dst]:bounds[dst+1]], cfg.RecordBytes)
		if err := ctx.Comm.Send(dst, tagExchange, buf); err != nil {
			return nil, fmt.Errorf("psrs exchange send to %d: %w", dst, err)
		}
	}
	recv := make([][]byte, p)
	total := bounds[me+1] - bounds[me]
	for off := 1; off < p; off++ {
		src := (me + p - off) % p
		msg, err := ctx.Comm.Recv(src, tagExchange)
		if err != nil {
			return nil, fmt.Errorf("psrs exchange recv from %d: %w", src, err)
		}
		recv[src] = msg.Data
		total += len(msg.Data) / rb
	}

	// Phase 5: merge of the sorted runs (real) + charge. The runs are
	// laid out in rank order in the sort's scratch buffer; keys is dead
	// once its local run is copied there, so it is the merge's second
	// buffer.
	runs := slices.Grow(tmp[:0], total)
	ends := make([]int, p)
	for src := 0; src < p; src++ {
		if src == me {
			runs = append(runs, keys[bounds[me]:bounds[me+1]]...)
		} else if runs, err = decodeRecords(runs, recv[src], cfg.RecordBytes); err != nil {
			return nil, err
		}
		ends[src] = len(runs)
	}
	merged := mergeRuns(runs, slices.Grow(keys[:0], len(runs)), ends)
	ctx.Charge(MergeOpsPerKey * float64(len(merged)))
	for i := 1; i < len(merged); i++ {
		if merged[i-1] > merged[i] {
			return nil, fmt.Errorf("psrs: merge produced unsorted output")
		}
	}

	// Phase 6: rank 0 gathers per-rank summaries and stitches the global
	// fingerprint (partitions are globally ordered by construction).
	o, m := fingerprint(merged)
	summary := []int64{int64(len(merged)), int64(o), int64(m), first(merged), last(merged)}
	if me != 0 {
		return nil, ctx.Comm.Send(0, tagSummary, mpt.EncodeInt64s(summary))
	}
	parts := make([]int, p)
	mins := make([]int64, p)
	maxs := make([]int64, p)
	var multiset uint64
	var ordered uint64
	counts := 0
	perRank := make([][]int64, p)
	perRank[0] = summary
	for r := 1; r < p; r++ {
		msg, err := ctx.Comm.Recv(r, tagSummary)
		if err != nil {
			return nil, fmt.Errorf("psrs summary recv from %d: %w", r, err)
		}
		perRank[r], err = mpt.DecodeInt64s(msg.Data)
		if err != nil {
			return nil, err
		}
	}
	offset := 0
	for r := 0; r < p; r++ {
		s := perRank[r]
		if len(s) != 5 {
			return nil, fmt.Errorf("psrs: bad summary from rank %d", r)
		}
		parts[r] = int(s[0])
		counts += parts[r]
		multiset += uint64(s[2])
		// Re-derive the global ordered fingerprint from per-rank ones is
		// not algebraically possible with this hash; instead combine rank
		// hashes positionally (deterministic and order-sensitive).
		ordered = ordered*0x100000001B3 + uint64(s[1]) + uint64(offset)
		offset += parts[r]
		mins[r], maxs[r] = s[3], s[4]
	}
	// Global order across partitions: max of rank r <= min of rank r+1.
	for r := 0; r+1 < p; r++ {
		if parts[r] > 0 && parts[r+1] > 0 && maxs[r] > mins[r+1] {
			return nil, fmt.Errorf("psrs: partitions overlap between ranks %d and %d", r, r+1)
		}
	}
	gmin, gmax := mins[0], maxs[0]
	for r := 1; r < p; r++ {
		if parts[r] == 0 {
			continue
		}
		if mins[r] < gmin {
			gmin = mins[r]
		}
		if maxs[r] > gmax {
			gmax = maxs[r]
		}
	}
	return &Result{Count: counts, Min: gmin, Max: gmax, OrderedCheck: ordered, MultisetSum: multiset, PartSizes: parts}, nil
}

func first(v []int64) int64 {
	if len(v) == 0 {
		return 0
	}
	return v[0]
}

func last(v []int64) int64 {
	if len(v) == 0 {
		return 0
	}
	return v[len(v)-1]
}

func log2(x float64) float64 {
	l := 0.0
	for x > 1 {
		x /= 2
		l++
	}
	return l
}

// sortKeys sorts keys in place with an LSD radix sort on 8-bit digits
// of each key's offset from the minimum key. One counting pass fills
// every digit's histogram, and only the digits the keys' span needs are
// sorted: four for the 30-bit keys keyAt makes. The passes ping-pong
// between keys and tmp, which is grown to len(keys) and returned for
// reuse.
func sortKeys(keys, tmp []int64) []int64 {
	if len(keys) < 2 {
		return tmp
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys[1:] {
		lo = min(lo, k)
		hi = max(hi, k)
	}
	passes := (bits.Len64(uint64(hi)-uint64(lo)) + 7) / 8
	if passes == 0 {
		return tmp
	}
	var counts [8][256]int
	for _, k := range keys {
		d := uint64(k) - uint64(lo)
		for i := range passes {
			counts[i][byte(d>>(8*i))]++
		}
	}
	tmp = slices.Grow(tmp[:0], len(keys))[:len(keys)]
	src, dst := keys, tmp
	for i := range passes {
		c := &counts[i]
		off := 0
		for d, n := range c {
			c[d] = off
			off += n
		}
		shift := 8 * i
		for _, k := range src {
			d := byte((uint64(k) - uint64(lo)) >> shift)
			dst[c[d]] = k
			c[d]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(keys, src)
	}
	return tmp
}

// mergeRuns merges the sorted runs of runs, where run i ends at ends[i],
// by merging adjacent runs pairwise, ⌈log₂ len(ends)⌉ passes that
// ping-pong between runs and spare (capacity at least len(runs)). It
// returns the buffer holding the merged keys, and overwrites ends.
func mergeRuns(runs, spare []int64, ends []int) []int64 {
	spare = spare[:len(runs)]
	for len(ends) > 1 {
		next := ends[:0]
		lo := 0
		for i := 0; i < len(ends); i += 2 {
			if i+1 == len(ends) {
				copy(spare[lo:ends[i]], runs[lo:ends[i]])
				next = append(next, ends[i])
				break
			}
			merge2(spare[lo:ends[i+1]], runs[lo:ends[i]], runs[ends[i]:ends[i+1]])
			next = append(next, ends[i+1])
			lo = ends[i+1]
		}
		ends = next
		runs, spare = spare, runs
	}
	return runs
}

// merge2 merges the sorted slices a and b into out, of length
// len(a)+len(b).
func merge2(out, a, b []int64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}

// VerifyAgainstSequential checks that the distributed sort produced the
// same multiset, in globally sorted order, with the same count and
// extremes as the sequential sort. The fields it compares do not depend
// on order, so the sequential values come from reference, which equals
// Sequential on them without sorting.
func VerifyAgainstSequential(cfg Config, par *Result) error {
	if par == nil {
		return fmt.Errorf("psrs: nil parallel result")
	}
	seq, err := reference(cfg)
	if err != nil {
		return err
	}
	if par.Count != seq.Count {
		return fmt.Errorf("psrs: count %d != %d", par.Count, seq.Count)
	}
	if par.Min != seq.Min || par.Max != seq.Max {
		return fmt.Errorf("psrs: extremes (%d,%d) != (%d,%d)", par.Min, par.Max, seq.Min, seq.Max)
	}
	if par.MultisetSum != seq.MultisetSum {
		return fmt.Errorf("psrs: multiset fingerprint mismatch — keys lost or corrupted")
	}
	return nil
}

// LoadImbalance reports max/mean partition size, the PSRS quality metric
// (the algorithm guarantees < 2 for distinct keys).
func (r *Result) LoadImbalance() float64 {
	if len(r.PartSizes) == 0 || r.Count == 0 {
		return 0
	}
	maxP := 0
	for _, s := range r.PartSizes {
		if s > maxP {
			maxP = s
		}
	}
	mean := float64(r.Count) / float64(len(r.PartSizes))
	return float64(maxP) / mean
}
