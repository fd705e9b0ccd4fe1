package psrs

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"
	"testing"
	"testing/quick"
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

func TestMergeRuns(t *testing.T) {
	runs := [][]int64{{1, 5, 9}, {2, 2, 8}, {}, {0, 10}}
	got := mergeRuns(runs)
	want := []int64{0, 1, 2, 2, 5, 8, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("merge length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPropertyMergeSortedRuns(t *testing.T) {
	prop := func(raw [][]int16) bool {
		runs := make([][]int64, len(raw))
		total := 0
		for i, r := range raw {
			run := make([]int64, len(r))
			for j, v := range r {
				run[j] = int64(v)
			}
			sort.Slice(run, func(a, b int) bool { return run[a] < run[b] })
			runs[i] = run
			total += len(run)
		}
		got := mergeRuns(runs)
		if len(got) != total {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] > got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
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
			got, err := decodeRecords(data, tc.recordBytes)
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
			_, err := decodeRecords(data, tc.recordBytes)
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
