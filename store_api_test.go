package tooleval_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tooleval"
	"tooleval/internal/runner"
)

// TestWithResultStoreIncrementalAcrossSessions is the restart story:
// a second session over the same store directory replays every cell
// from disk — zero misses, identical numbers.
func TestWithResultStoreIncrementalAcrossSessions(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sizes := []int{64, 1 << 10, 16 << 10}

	sess1 := tooleval.NewSession(tooleval.WithResultStore(dir))
	cold, err := sess1.PingPong(ctx, "sun-ethernet", "p4", sizes)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := sess1.Stats(); misses == 0 {
		t.Fatal("cold run reported zero misses; nothing was simulated?")
	}
	if st := sess1.ResultStore(); st == nil || st.Len() == 0 {
		t.Fatal("cold run wrote nothing to the result store")
	}
	if err := sess1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cells.seg")); err != nil {
		t.Fatalf("segment file missing after Close: %v", err)
	}

	sess2 := tooleval.NewSession(tooleval.WithResultStore(dir))
	defer sess2.Close()
	warm, err := sess2.PingPong(ctx, "sun-ethernet", "p4", sizes)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := sess2.Stats()
	if misses != 0 {
		t.Fatalf("warm run simulated %d cells, want 0 (all replayed from the store)", misses)
	}
	if hits == 0 {
		t.Fatal("warm run reported zero hits")
	}
	for i := range cold {
		if warm[i] != cold[i] {
			t.Fatalf("size %d: warm %v != cold %v; replayed cells must be identical", sizes[i], warm[i], cold[i])
		}
	}
}

// TestSessionCloseWithoutStore: Close on a storeless session is a nil
// no-op, so callers can defer it unconditionally.
func TestSessionCloseWithoutStore(t *testing.T) {
	sess := tooleval.NewSession()
	if sess.ResultStore() != nil {
		t.Fatal("storeless session reports a result store")
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestWithResultStoreConflictsPanic: a store that cannot be opened, or
// one that would silently mis-wire the durable tier, must fail loudly
// at construction.
func TestWithResultStoreConflictsPanic(t *testing.T) {
	mustPanicStore := func(name, wantSub string, build func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: NewSession accepted a conflicting configuration", name)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, wantSub) {
				t.Fatalf("%s: panic %v does not explain the conflict (want %q)", name, r, wantSub)
			}
		}()
		build()
	}
	// A regular file where the store directory should be is a real IO
	// error, not damage the store could recover from.
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	mustPanicStore("store path is a file", "WithResultStore", func() {
		tooleval.NewSession(tooleval.WithResultStore(file))
	})
	// A shared cache that already carries a tier must not be silently
	// pointed at a second store by another session.
	cache := tooleval.NewCache()
	sess := tooleval.NewSession(tooleval.WithCache(cache), tooleval.WithResultStore(t.TempDir()))
	defer sess.Close()
	mustPanicStore("second store on a shared cache", "already has a result store", func() {
		tooleval.NewSession(tooleval.WithCache(cache), tooleval.WithResultStore(t.TempDir()))
	})
}

// TestWithExecutorComposesWithResultStore: the durable tier attaches
// to a caller-built executor's cache, so a second such session over the
// same directory replays every cell from disk.
func TestWithExecutorComposesWithResultStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sizes := []int{128, 2 << 10, 16 << 10}

	x := runner.New(2)
	cold := tooleval.NewSession(tooleval.WithExecutor(x), tooleval.WithResultStore(dir))
	want, err := cold.PingPong(ctx, "sun-ethernet", "p4", sizes)
	if err != nil {
		t.Fatal(err)
	}
	if x.Cache().Tier() == nil {
		t.Fatal("WithResultStore did not attach the store to the executor's cache")
	}
	if _, misses := cold.Stats(); misses != int64(len(sizes)) {
		t.Fatalf("cold run simulated %d cells, want %d", misses, len(sizes))
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm := tooleval.NewSession(tooleval.WithExecutor(runner.New(2)), tooleval.WithResultStore(dir))
	defer warm.Close()
	got, err := warm.PingPong(ctx, "sun-ethernet", "p4", sizes)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := warm.Stats(); misses != 0 || hits != int64(len(sizes)) {
		t.Fatalf("warm run = %d hits / %d misses, want %d/0 (all replayed from the store)", hits, misses, len(sizes))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("size %d: warm %v != cold %v", sizes[i], got[i], want[i])
		}
	}
}

// TestOpenResultStoreWithCustomExecutor: a store opened by hand and
// attached to an executor's cache persists cells exactly like one the
// session opens itself.
func TestOpenResultStoreWithCustomExecutor(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sizes := []int{128, 2 << 10}

	st, err := tooleval.OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	x := runner.New(2)
	x.Cache().SetTier(st)
	sess := tooleval.NewSession(tooleval.WithExecutor(x))
	cold, err := sess.PingPong(ctx, "sun-ethernet", "p4", sizes)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A store-owning session over the same directory replays the cells
	// the custom executor persisted.
	sess2 := tooleval.NewSession(tooleval.WithResultStore(dir))
	defer sess2.Close()
	warm, err := sess2.PingPong(ctx, "sun-ethernet", "p4", sizes)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := sess2.Stats(); misses != 0 {
		t.Fatalf("warm run simulated %d cells, want 0", misses)
	}
	for i := range cold {
		if warm[i] != cold[i] {
			t.Fatalf("size %d: warm %v != cold %v", sizes[i], warm[i], cold[i])
		}
	}
}
