package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tooleval/internal/runner"
)

const testEngine uint64 = 7

func cellKey(i int) runner.Key {
	return runner.Key{
		Platform: fmt.Sprintf("plat-%d", i%3),
		Tool:     fmt.Sprintf("tool-%d", i%5),
		Bench:    fmt.Sprintf("bench-%d", i),
		Procs:    1 + i%16,
		Size:     64 << (i % 4),
		Scale:    0.25,
	}
}

func cellRes(i int) runner.CellResult {
	return runner.CellResult{
		Value:   float64(i) * 1.5,
		Virtual: time.Duration(i) * time.Millisecond,
	}
}

func openT(t *testing.T, dir string, engine uint64) *Store {
	t.Helper()
	s, err := Open(dir, engine)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	return s
}

func fillN(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		s.Fill(cellKey(i), cellRes(i))
	}
	if err := s.Err(); err != nil {
		t.Fatalf("write error after %d fills: %v", n, err)
	}
}

func wantCells(t *testing.T, s *Store, present, absent []int) {
	t.Helper()
	for _, i := range present {
		res, ok := s.Lookup(cellKey(i))
		if !ok {
			t.Fatalf("cell %d: missing, want present", i)
		}
		if res != cellRes(i) {
			t.Fatalf("cell %d: got %+v, want %+v", i, res, cellRes(i))
		}
	}
	for _, i := range absent {
		if _, ok := s.Lookup(cellKey(i)); ok {
			t.Fatalf("cell %d: present, want absent", i)
		}
	}
}

func seq(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func TestRoundtripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, testEngine)
	fillN(t, s, 40)
	wantCells(t, s, seq(0, 40), nil)
	if s.Len() != 40 {
		t.Fatalf("Len = %d, want 40", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openT(t, dir, testEngine)
	defer s2.Close()
	if s2.Len() != 40 {
		t.Fatalf("reopened Len = %d, want 40", s2.Len())
	}
	wantCells(t, s2, seq(0, 40), nil)
}

func TestFillDeduplicates(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, testEngine)
	s.Fill(cellKey(0), cellRes(0))
	size1 := segSize(t, s)
	s.Fill(cellKey(0), runner.CellResult{Value: 999}) // ignored: cells are deterministic
	if got := segSize(t, s); got != size1 {
		t.Fatalf("duplicate Fill grew the segment: %d -> %d", size1, got)
	}
	wantCells(t, s, []int{0}, nil)
	s.Close()
}

func TestFillAfterCloseIsNoOp(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, testEngine)
	fillN(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s.Fill(cellKey(9), cellRes(9)) // must not panic or write
	wantCells(t, s, seq(0, 3), []int{9})
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCloseIdempotentConcurrent is the -race regression test for
// double Close: an owner may close the store on shutdown while another
// path closes it too, possibly from different goroutines at once.
// Every call must agree on the single close outcome.
func TestCloseIdempotentConcurrent(t *testing.T) {
	t.Parallel()
	s := openT(t, t.TempDir(), testEngine)
	fillN(t, s, 1)
	if err := s.Err(); err != nil {
		t.Fatalf("Err on healthy store: %v", err)
	}
	const callers = 8
	errs := make([]error, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != errs[0] {
			t.Fatalf("Close call %d returned %v, call 0 returned %v — calls disagree", i, err, errs[0])
		}
		if err != nil {
			t.Fatalf("Close call %d: %v", i, err)
		}
	}
	// A late straggler after everything settled gets the same answer,
	// and the closed store still answers lookups (it just stops
	// persisting).
	if err := s.Close(); err != nil {
		t.Fatalf("repeated Close: %v", err)
	}
	wantCells(t, s, []int{0}, nil)
}

// TestOpenFailsWhenDirIsAFile: a regular file where the store
// directory should be is a real IO error, not damage the store could
// recover from.
func TestOpenFailsWhenDirIsAFile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(file, testEngine)
	if err == nil {
		s.Close()
		t.Fatalf("Open(%q) over a regular file succeeded", file)
	}
	if !strings.HasPrefix(err.Error(), "store: ") {
		t.Errorf("Open error %q does not name the store", err)
	}
}

func segSize(t *testing.T, s *Store) int64 {
	t.Helper()
	fi, err := os.Stat(s.Path())
	if err != nil {
		t.Fatalf("stat segment: %v", err)
	}
	return fi.Size()
}

// corrupt flips one byte of the segment file at offset off.
func corrupt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open segment for corruption: %v", err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatalf("read byte at %d: %v", off, err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatalf("write byte at %d: %v", off, err)
	}
}

// Torn tails and mid-file corruption are covered exhaustively by the
// chaos property tests (chaos_test.go): every truncation length, every
// single-byte flip, every short-write tear point. Only the header case
// keeps a hand-written test, for its distinct reset-wholesale behavior.

func TestCorruptHeaderEmptiesStore(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, testEngine)
	fillN(t, s, 5)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	corrupt(t, s.Path(), 2) // inside the magic

	s2 := openT(t, dir, testEngine)
	if s2.Len() != 0 {
		t.Fatalf("after header corruption: Len = %d, want 0", s2.Len())
	}
	fillN(t, s2, 5)
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s3 := openT(t, dir, testEngine)
	defer s3.Close()
	wantCells(t, s3, seq(0, 5), nil)
}

func TestEngineVersionMismatchInvalidates(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, testEngine)
	fillN(t, s, 8)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A simulation-core change bumps the engine stamp: every stored cell
	// is untrusted and the store restarts empty under the new stamp.
	s2 := openT(t, dir, testEngine+1)
	if s2.Len() != 0 {
		t.Fatalf("after engine bump: Len = %d, want 0", s2.Len())
	}
	fillN(t, s2, 8)
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopening under the new version keeps the refilled cells...
	s3 := openT(t, dir, testEngine+1)
	if s3.Len() != 8 {
		t.Fatalf("reopen under new engine: Len = %d, want 8", s3.Len())
	}
	s3.Close()

	// ...and going back to the old version invalidates again.
	s4 := openT(t, dir, testEngine)
	defer s4.Close()
	if s4.Len() != 0 {
		t.Fatalf("reopen under old engine: Len = %d, want 0", s4.Len())
	}
}

func TestConcurrentFillLookup(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, testEngine)
	const n = 200
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 8 {
				s.Fill(cellKey(i), cellRes(i))
			}
		}(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if res, ok := s.Lookup(cellKey(i)); ok && res != cellRes(i) {
					t.Errorf("cell %d: got %+v", i, res)
					return
				}
				_ = s.Len()
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openT(t, dir, testEngine)
	defer s2.Close()
	if s2.Len() != n {
		t.Fatalf("after concurrent fills: Len = %d, want %d", s2.Len(), n)
	}
	wantCells(t, s2, seq(0, n), nil)
}
