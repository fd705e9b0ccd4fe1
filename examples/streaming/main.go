// streaming demonstrates the stream-first evaluation API: a
// heterogeneous sweep declared as data, consumed incrementally in spec
// order while later specs are still simulating, with the session's
// typed event stream narrating progress — and per-session quotas
// keeping a runaway tenant inside its budget without poisoning the
// cache it shares.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync/atomic"

	"tooleval"
)

func main() {
	ctx := context.Background()

	// Part 1: stream a sweep. The event sink counts simulations live;
	// the result loop sees each spec's outcome the moment it is ready
	// instead of waiting for the whole batch.
	var cells atomic.Int64
	sess := tooleval.NewSession(tooleval.WithParallelism(4))
	sweepCtx := tooleval.EventContext(ctx, func(ev tooleval.Event) {
		if _, ok := ev.(tooleval.CellEvent); ok {
			cells.Add(1)
		}
	})
	specs := []tooleval.ExperimentSpec{
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0, 4 << 10, 64 << 10}},
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "pvm", Sizes: []int{0, 4 << 10, 64 << 10}},
		{Kind: tooleval.KindBroadcast, Platform: "sun-ethernet", Tool: "express", Procs: 4, Sizes: []int{16 << 10}},
		{Kind: tooleval.KindApp, Platform: "alpha-fddi", Tool: "p4", App: "montecarlo", ProcsList: []int{1, 2, 4}, Scale: 0.1},
	}
	fmt.Println("Streaming a heterogeneous sweep (results arrive in spec order):")
	for res, err := range sess.Stream(sweepCtx, specs) {
		if err != nil {
			log.Fatal(err)
		}
		switch res.Spec.Kind {
		case tooleval.KindApp:
			fmt.Printf("  %-9s %-12s %-8s %d sweep points (after %d cells)\n",
				res.Spec.Kind, res.Spec.Platform, res.Spec.Tool, len(res.App.Seconds), cells.Load())
		default:
			fmt.Printf("  %-9s %-12s %-8s slowest %.2f ms (after %d cells)\n",
				res.Spec.Kind, res.Spec.Platform, res.Spec.Tool, res.Times[len(res.Times)-1], cells.Load())
		}
	}
	hits, misses := sess.Stats()
	fmt.Printf("sweep done: %d simulated, %d from cache\n\n", misses, hits)

	// Part 2: quotas. A budgeted tenant sharing the first session's
	// cache gets exactly its allotment and a typed refusal afterwards —
	// and the shared cache stays clean for everyone else.
	tenant := tooleval.NewSession(
		tooleval.WithParallelism(1),
		tooleval.WithCache(sess.Cache()),
		tooleval.WithMaxCells(2),
	)
	fmt.Println("A tenant budgeted to 2 fresh simulations:")
	// The p4 curve is already cached — hits are free, budgets charge
	// only real simulations.
	if _, err := tenant.PingPong(ctx, "sun-ethernet", "p4", []int{0, 4 << 10, 64 << 10}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  cached p4 curve replayed for free")
	// A fresh sweep burns the budget after two cells.
	_, err := tenant.Ring(ctx, "sun-ethernet", "p4", 4, []int{0, 1 << 10, 2 << 10})
	var qe *tooleval.QuotaError
	if errors.As(err, &qe) {
		fmt.Printf("  fresh ring sweep refused: %s budget spent (%d/%d)\n", qe.Resource, qe.Used, qe.Limit)
	} else {
		log.Fatalf("expected a quota breach, got %v", err)
	}
	// The refusal was never memoized: the unbudgeted session computes
	// the same cell normally.
	if _, err := sess.Ring(ctx, "sun-ethernet", "p4", 4, []int{2 << 10}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  shared cache unpoisoned: the free session computed the refused cell")
}
