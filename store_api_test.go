package tooleval_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"tooleval"
	"tooleval/internal/runner"
)

// openTier opens the durable store in dir and attaches it to a fresh
// cache: the one way to give sessions a durable tier. The caller
// closes the store.
func openTier(t *testing.T, dir string) (*tooleval.ResultStore, *tooleval.Cache) {
	t.Helper()
	st, err := tooleval.OpenResultStore(dir)
	if err != nil {
		t.Fatalf("OpenResultStore: %v", err)
	}
	cache := tooleval.NewCache()
	cache.SetTier(st)
	return st, cache
}

// TestWithResultStoreIncrementalAcrossSessions is the restart story:
// a second session over the same store directory replays every cell
// from disk — zero misses, identical numbers.
func TestWithResultStoreIncrementalAcrossSessions(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sizes := []int{64, 1 << 10, 16 << 10}

	st1, cache1 := openTier(t, dir)
	sess1 := tooleval.NewSession(tooleval.WithCache(cache1))
	cold, err := sess1.PingPong(ctx, "sun-ethernet", "p4", sizes)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := sess1.Stats(); misses == 0 {
		t.Fatal("cold run reported zero misses; nothing was simulated?")
	}
	if st1.Len() == 0 {
		t.Fatal("cold run wrote nothing to the result store")
	}
	if err := st1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cells.seg")); err != nil {
		t.Fatalf("segment file missing after Close: %v", err)
	}

	st2, cache2 := openTier(t, dir)
	defer st2.Close()
	sess2 := tooleval.NewSession(tooleval.WithCache(cache2))
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

// TestWithExecutorComposesWithResultStore: a store attached to a
// caller-built executor's cache persists the session's cells, so a
// second such session over the same directory replays every cell from
// disk.
func TestWithExecutorComposesWithResultStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sizes := []int{128, 2 << 10, 16 << 10}

	st, err := tooleval.OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	x := runner.New(2)
	x.Cache().SetTier(st)
	cold := tooleval.NewSession(tooleval.WithExecutor(x))
	want, err := cold.PingPong(ctx, "sun-ethernet", "p4", sizes)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(sizes) {
		t.Fatalf("store holds %d cells after the cold run, want %d", st.Len(), len(sizes))
	}
	if _, misses := cold.Stats(); misses != int64(len(sizes)) {
		t.Fatalf("cold run simulated %d cells, want %d", misses, len(sizes))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := tooleval.OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	x2 := runner.New(2)
	x2.Cache().SetTier(st2)
	warm := tooleval.NewSession(tooleval.WithExecutor(x2))
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

// TestOpenResultStoreWithCustomExecutor: cells persisted through a
// custom executor's cache replay in a session on the built-in pool —
// the store does not care which executor wrote it.
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

	// A built-in-pool session over the same directory replays the
	// cells the custom executor persisted.
	st2, cache := openTier(t, dir)
	defer st2.Close()
	sess2 := tooleval.NewSession(tooleval.WithCache(cache))
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
