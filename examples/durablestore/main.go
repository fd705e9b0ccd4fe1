// durablestore demonstrates the disk-backed result tier: a store
// opened with OpenResultStore and attached to a session's cache
// persists every simulated cell to an append-only segment file, so a
// second session over the same directory — a process restart, in real
// life — replays the whole sweep from disk without simulating a single
// cell. Results are pure functions of their content keys, so the
// replayed numbers are identical to the simulated ones.
//
// It also shows the recovery contract: flipping a byte in the middle
// of the segment file does not crash the next session — the corrupt
// suffix is detected by its checksum, truncated, and re-simulated.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"tooleval"
)

var sizes = []int{64, 1 << 10, 16 << 10, 64 << 10}

// sweep is one process lifetime: open the store in dir, attach it to a
// fresh cache, run the ping-pong sweep through a session over that
// cache, and close the store (which returns any latched write error).
func sweep(ctx context.Context, dir string) (times []float64, hits, misses int64, persisted int) {
	st, err := tooleval.OpenResultStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	cache := tooleval.NewCache()
	cache.SetTier(st)
	sess := tooleval.NewSession(tooleval.WithCache(cache))
	times, err = sess.PingPong(ctx, "sun-ethernet", "p4", sizes)
	if err != nil {
		log.Fatal(err)
	}
	hits, misses = sess.Stats()
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
	return times, hits, misses, st.Len()
}

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "tooleval-store")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Cold: an empty store. Every cell simulates and is persisted.
	coldTimes, _, coldMisses, persisted := sweep(ctx, dir)
	fmt.Printf("cold session: %d cells simulated, %d persisted\n", coldMisses, persisted)

	// Warm: a fresh session (think: restarted process) over the same
	// directory replays everything from disk.
	warmTimes, warmHits, warmMisses, _ := sweep(ctx, dir)
	fmt.Printf("warm session: %d cells simulated, %d replayed from the store\n",
		warmMisses, warmHits)
	for i := range coldTimes {
		if warmTimes[i] != coldTimes[i] {
			log.Fatalf("size %d: replayed %v != simulated %v", sizes[i], warmTimes[i], coldTimes[i])
		}
	}
	fmt.Println("replayed results identical to simulated ones")

	// Corrupt the segment mid-file: the next session keeps the intact
	// prefix, drops the damaged suffix, and re-simulates it.
	seg := filepath.Join(dir, "cells.seg")
	blob, err := os.ReadFile(seg)
	if err != nil {
		log.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(seg, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	healedTimes, _, healedMisses, _ := sweep(ctx, dir)
	for i := range coldTimes {
		if healedTimes[i] != coldTimes[i] {
			log.Fatalf("size %d: post-corruption %v != original %v", sizes[i], healedTimes[i], coldTimes[i])
		}
	}
	fmt.Printf("corrupted segment recovered: %d cells re-simulated, results unchanged\n",
		healedMisses)
}
