package psrs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"tooleval/internal/mpt"
	"tooleval/internal/mpt/tools"
	"tooleval/internal/platform"
)

func TestSequentialSorts(t *testing.T) {
	res, err := Sequential(Config{Records: 10_000, RecordBytes: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 10_000 {
		t.Fatalf("count = %d", res.Count)
	}
	if res.Min > res.Max {
		t.Fatalf("min %d > max %d", res.Min, res.Max)
	}
}

func TestGenerateGlobalMultisetInvariantAcrossP(t *testing.T) {
	cfg := Config{Records: 5_000, RecordBytes: 64, Seed: 2}
	base := generate(cfg, 0, 1)
	for p := 2; p <= 8; p++ {
		var union []int64
		for r := 0; r < p; r++ {
			union = append(union, generate(cfg, r, p)...)
		}
		if len(union) != len(base) {
			t.Fatalf("p=%d: %d keys, want %d", p, len(union), len(base))
		}
		a := append([]int64(nil), base...)
		b := append([]int64(nil), union...)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("p=%d: multiset differs at %d", p, i)
			}
		}
	}
}

// concatRuns lays runs out back to back, as Parallel does before its
// merge, and returns the buffer and each run's end offset.
func concatRuns(runs [][]int64) (buf []int64, ends []int) {
	for _, r := range runs {
		buf = append(buf, r...)
		ends = append(ends, len(buf))
	}
	return buf, ends
}

func TestMergeRuns(t *testing.T) {
	for _, tc := range []struct {
		name string
		runs [][]int64
		want []int64
	}{
		{"four runs, one empty", [][]int64{{1, 5, 9}, {2, 2, 8}, {}, {0, 10}}, []int64{0, 1, 2, 2, 5, 8, 9, 10}},
		{"one run", [][]int64{{3, 4, 4}}, []int64{3, 4, 4}},
		{"three runs, odd one out", [][]int64{{7}, {1, 9}, {-3, 0, 2}}, []int64{-3, 0, 1, 2, 7, 9}},
		{"all empty", [][]int64{{}, {}, {}}, []int64{}},
		{"five runs", [][]int64{{5}, {4}, {3}, {2}, {1}}, []int64{1, 2, 3, 4, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf, ends := concatRuns(tc.runs)
			got := mergeRuns(buf, make([]int64, 0, len(buf)), ends)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("merge = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestPropertyMergeSortedRuns(t *testing.T) {
	prop := func(raw [][]int16) bool {
		runs := make([][]int64, len(raw))
		var all []int64
		for i, r := range raw {
			run := make([]int64, len(r))
			for j, v := range r {
				run[j] = int64(v)
			}
			slices.Sort(run)
			runs[i] = run
			all = append(all, run...)
		}
		slices.Sort(all)
		if len(runs) == 0 {
			return true
		}
		buf, ends := concatRuns(runs)
		got := mergeRuns(buf, make([]int64, 0, len(buf)), ends)
		return slices.Equal(got, all)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortKeysMatchesSlicesSort(t *testing.T) {
	ascending := make([]int64, 300)
	for i := range ascending {
		ascending[i] = int64(i*7 - 1000)
	}
	descending := slices.Clone(ascending)
	slices.Reverse(descending)
	for _, tc := range []struct {
		name string
		keys []int64
	}{
		{"empty", nil},
		{"one key", []int64{42}},
		{"all equal", []int64{9, 9, 9, 9, 9}},
		{"duplicates", []int64{3, 1, 3, 2, 1, 3, 2, 2}},
		{"already sorted", ascending},
		{"reversed", descending},
		{"negatives", []int64{-5, 3, -1 << 40, 0, -1, 1 << 40, -2}},
		{"min and max int64", []int64{math.MaxInt64, 0, math.MinInt64, -1, 1, math.MaxInt64, math.MinInt64}},
		{"differ only in top byte", []int64{0x7f << 56, 0x01 << 56, 0x40 << 56, 0x02 << 56, -0x80 << 56, 0x01 << 56}},
		{"keyAt input", generate(Config{Records: 5000, Seed: 31}, 1, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := slices.Clone(tc.keys)
			sortKeys(got, nil)
			want := slices.Clone(tc.keys)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("sortKeys = %v, want %v", got, want)
			}
		})
	}
}

func TestPropertySortKeys(t *testing.T) {
	var tmp []int64
	prop := func(keys []int64, shift uint8) bool {
		// Narrow the keys' span by a random amount so every pass count
		// from one to eight is exercised.
		for i := range keys {
			keys[i] >>= shift % 64
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		tmp = sortKeys(keys, tmp)
		return slices.Equal(keys, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSortKeysAllocatesNothingWithScratch(t *testing.T) {
	input := generate(Config{Records: 4000, Seed: 3}, 0, 1)
	keys := make([]int64, len(input))
	tmp := make([]int64, len(input))
	allocs := testing.AllocsPerRun(20, func() {
		copy(keys, input)
		tmp = sortKeys(keys, tmp)
	})
	if allocs != 0 {
		t.Fatalf("sortKeys with enough scratch allocated %.0f times, want 0", allocs)
	}
}

func TestParallelNeedsARecordPerRank(t *testing.T) {
	pf, err := platform.Get("alpha-fddi")
	if err != nil {
		t.Fatal(err)
	}
	factory, err := tools.Factory("p4")
	if err != nil {
		t.Fatal(err)
	}
	const procs = 8
	for _, tc := range []struct {
		records int
		wantErr bool
	}{
		{1, true}, {3, true}, {5, true}, {8, false}, {9, false},
	} {
		t.Run(fmt.Sprintf("records=%d", tc.records), func(t *testing.T) {
			cfg := Config{Records: tc.records, RecordBytes: 64, Seed: 31}
			res, err := mpt.Run(pf, factory, mpt.RunConfig{Procs: procs}, func(ctx *mpt.Ctx) (any, error) {
				return Parallel(ctx, cfg)
			})
			if tc.wantErr {
				if err == nil {
					t.Fatal("fewer records than ranks was accepted")
				}
				if !strings.Contains(err.Error(), "cannot give each of 8 ranks a key") {
					t.Fatalf("error = %v, want the record-count check", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyAgainstSequential(cfg, res.Value.(*Result)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFingerprintOrderSensitivity(t *testing.T) {
	a := []int64{1, 2, 3}
	b := []int64{3, 2, 1}
	oa, ma := fingerprint(a)
	ob, mb := fingerprint(b)
	if ma != mb {
		t.Fatal("multiset fingerprint should be order-independent")
	}
	if oa == ob {
		t.Fatal("ordered fingerprint should be order-sensitive")
	}
}

func TestSummarizeRejectsUnsorted(t *testing.T) {
	if _, err := summarize([]int64{3, 1, 2}, []int{3}); err == nil {
		t.Fatal("unsorted output should be rejected")
	}
}

func TestLoadImbalance(t *testing.T) {
	r := &Result{Count: 100, PartSizes: []int{25, 25, 25, 25}}
	if got := r.LoadImbalance(); got != 1.0 {
		t.Fatalf("perfect balance = %f, want 1.0", got)
	}
	r2 := &Result{Count: 100, PartSizes: []int{40, 20, 20, 20}}
	if got := r2.LoadImbalance(); got != 1.6 {
		t.Fatalf("imbalance = %f, want 1.6", got)
	}
}

func TestScaledFloor(t *testing.T) {
	if DefaultConfig().Scaled(0.0000001).Records < 64 {
		t.Fatal("scaled keys below floor")
	}
}

// codecCases are the record-codec rows: round trips at record sizes
// with and without a payload tail, bit flips in a key, an aligned
// payload word and a tail, and a truncated record. FuzzDecodeRecords
// seeds its corpus from the same inputs.
var codecCases = []struct {
	name        string
	keys        []int64
	recordBytes int
	flip        int // byte offset to flip one bit of, or -1
	truncate    int // bytes to cut from the end
	wantErr     string
}{
	{name: "round trip rb=8", keys: roundTripKeys, recordBytes: 8, flip: -1},
	{name: "round trip rb=13", keys: roundTripKeys, recordBytes: 13, flip: -1},
	{name: "round trip rb=16", keys: roundTripKeys, recordBytes: 16, flip: -1},
	{name: "round trip rb=20", keys: roundTripKeys, recordBytes: 20, flip: -1},
	{name: "round trip rb=64", keys: roundTripKeys, recordBytes: 64, flip: -1},
	{name: "round trip rb=100", keys: roundTripKeys, recordBytes: 100, flip: -1},
	{name: "round trip empty", keys: nil, recordBytes: 64, flip: -1},
	{name: "key byte", keys: []int64{42, 43}, recordBytes: 20, flip: 3,
		wantErr: "psrs: record 0 payload corrupted at byte 0"},
	{name: "aligned payload word", keys: []int64{42, 43}, recordBytes: 20, flip: 13,
		wantErr: "psrs: record 0 payload corrupted at byte 5"},
	{name: "tail first byte", keys: []int64{42, 43}, recordBytes: 20, flip: 37,
		wantErr: "psrs: record 1 payload corrupted at byte 9"},
	{name: "tail last byte", keys: []int64{42, 43}, recordBytes: 20, flip: 39,
		wantErr: "psrs: record 1 payload corrupted at byte 11"},
	{name: "second payload word", keys: []int64{42, 43}, recordBytes: 64, flip: 64 + 8 + 15,
		wantErr: "psrs: record 1 payload corrupted at byte 15"},
	{name: "truncated record", keys: []int64{42, 43}, recordBytes: 64, flip: -1, truncate: 65,
		wantErr: "psrs: record payload length 63 not a multiple of 64"},
}

var roundTripKeys = []int64{0, 1, -5, 1 << 40, 999_999_937}

// codecInput is the encoded, then damaged, bytes of a codecCases row.
func codecInput(keys []int64, recordBytes, flip, truncate int) []byte {
	enc := encodeRecords(nil, keys, recordBytes)
	if flip >= 0 {
		enc[flip] ^= 0x10
	}
	return enc[:len(enc)-truncate]
}

// TestRecordCodecRoundTrip runs the codecCases rows that decode cleanly.
func TestRecordCodecRoundTrip(t *testing.T) {
	for _, tc := range codecCases {
		if tc.wantErr != "" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			data := codecInput(tc.keys, tc.recordBytes, tc.flip, tc.truncate)
			got, err := decodeRecords(nil, data, tc.recordBytes)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) != len(tc.keys)*tc.recordBytes {
				t.Fatalf("encoded %d bytes, want %d", len(data), len(tc.keys)*tc.recordBytes)
			}
			if !slices.Equal(got, tc.keys) {
				t.Fatalf("round trip = %v, want %v", got, tc.keys)
			}
		})
	}
}

// TestRecordCodecDetectsCorruption runs the codecCases rows whose
// damaged bytes must fail to decode with the exact error text.
func TestRecordCodecDetectsCorruption(t *testing.T) {
	for _, tc := range codecCases {
		if tc.wantErr == "" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			data := codecInput(tc.keys, tc.recordBytes, tc.flip, tc.truncate)
			_, err := decodeRecords(nil, data, tc.recordBytes)
			if err == nil || err.Error() != tc.wantErr {
				t.Fatalf("decode error = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

// TestRecordCodecBytesPinned pins the encoded bytes to those of the
// byte-at-a-time encoder the word-wide one replaced, at record sizes
// with and without a payload tail.
func TestRecordCodecBytesPinned(t *testing.T) {
	keys := append(generate(Config{Records: 1000, Seed: 7}, 0, 1), 0, -1, -5, 1<<40, 1<<62)
	for _, tc := range []struct {
		recordBytes int
		sha256      string
	}{
		{8, "579c9815f9dc65924446dbcc057c10feb0d7e630e473b42b6d95630ac0237952"},
		{13, "41e096f68017bcbf4e9d3998ae197aad5a267d126a15d6c57637dde9ad819034"},
		{64, "ad872ce5920baa897f9aadc61ec4d2aa97bed9a61c773c5e8fd7b82c8678ce30"},
		{100, "9ba08d15ae7d39453749e81a8735f60733360ae87023becb0b31f099d5a6c4b5"},
	} {
		sum := sha256.Sum256(encodeRecords(nil, keys, tc.recordBytes))
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
			t.Errorf("recordBytes=%d: sha256 %s, want %s", tc.recordBytes, got, tc.sha256)
		}
	}
}

func TestEncodeRecordsReusesBuffer(t *testing.T) {
	keys := generate(Config{Records: 500, Seed: 3}, 0, 1)
	buf := make([]byte, 0, len(keys)*64)
	allocs := testing.AllocsPerRun(20, func() {
		buf = encodeRecords(buf, keys, 64)
	})
	if allocs != 0 {
		t.Fatalf("encodeRecords into a buffer with room allocated %.0f times, want 0", allocs)
	}
}

func TestReferenceMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 31} {
		for _, records := range []int{1, 64, 1000, 4097} {
			cfg := Config{Records: records, RecordBytes: 64, Seed: seed}
			seq, err := Sequential(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := reference(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Count != seq.Count || ref.Min != seq.Min || ref.Max != seq.Max || ref.MultisetSum != seq.MultisetSum {
				t.Errorf("seed=%d records=%d: reference %+v, sequential %+v", seed, records, ref, *seq)
			}
		}
	}
	empty := Config{Records: 0, RecordBytes: 64, Seed: 1}
	if _, err := Sequential(empty); err == nil {
		t.Error("Sequential accepted an empty input")
	}
	if _, err := reference(empty); err == nil {
		t.Error("reference accepted an empty input")
	}
}

func TestVerifyAgainstSequentialRejects(t *testing.T) {
	cfg := Config{Records: 1000, RecordBytes: 64, Seed: 5}
	seq, err := Sequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainstSequential(cfg, seq); err != nil {
		t.Fatalf("the sequential result itself was rejected: %v", err)
	}
	perturbed := func(f func(r *Result)) *Result {
		r := *seq
		f(&r)
		return &r
	}
	for _, tc := range []struct {
		name string
		res  *Result
	}{
		{"nil", nil},
		{"count", perturbed(func(r *Result) { r.Count++ })},
		{"min", perturbed(func(r *Result) { r.Min++ })},
		{"max", perturbed(func(r *Result) { r.Max++ })},
		{"multiset", perturbed(func(r *Result) { r.MultisetSum++ })},
	} {
		if err := VerifyAgainstSequential(cfg, tc.res); err == nil {
			t.Errorf("%s: perturbed result accepted", tc.name)
		}
	}
}
