// sessions demonstrates the session-based evaluation API: two tenants
// share one process but nothing else. Each builds its own
// tooleval.Session — its own scheduler parallelism, memoization cache,
// statistics, and progress stream — and both evaluate concurrently.
// Virtual time makes every simulation cell deterministic, so the two
// tenants produce byte-identical reports even though one sweeps
// serially and the other fans out over four workers.
//
// It also shows the opt-in sharing story: a third session is handed the
// first tenant's cache with WithCache and serves its whole evaluation
// from memoized cells without simulating anything.
package main

import (
	"context"
	"fmt"
	"log"
	"sync/atomic"

	"tooleval"
)

func main() {
	ctx := context.Background()
	const scale = 0.3
	profile := tooleval.EndUserProfile()

	type tenant struct {
		name        string
		parallelism int
		cells       atomic.Int64
		sess        *tooleval.Session
		report      string
	}
	tenants := [2]*tenant{
		{name: "tenant-serial", parallelism: 1},
		{name: "tenant-parallel", parallelism: 4},
	}
	for _, t := range tenants {
		t := t
		t.sess = tooleval.NewSession(tooleval.WithParallelism(t.parallelism))
	}

	// Both tenants evaluate at the same time; neither can clobber the
	// other's parallelism, cache, or counters.
	errs := make(chan error, len(tenants))
	for _, t := range tenants {
		t := t
		//toolvet:ignore boundedgo one goroutine per fixed demo tenant (two), not data-sized fan-out
		go func() {
			// The tenant's progress sink rides the context of its call.
			tctx := tooleval.EventContext(ctx, func(e tooleval.Event) {
				if ev, ok := e.(tooleval.CellEvent); ok && !ev.Cached {
					t.cells.Add(1)
				}
			})
			ev, err := t.sess.Evaluate(tctx, profile, scale)
			if err == nil {
				t.report = tooleval.RenderEvaluation(ev)
			}
			errs <- err
		}()
	}
	for range tenants {
		if err := <-errs; err != nil {
			log.Fatal(err)
		}
	}

	for _, t := range tenants {
		hits, misses := t.sess.Stats()
		fmt.Printf("%s: parallelism %d, %d cells simulated (%d progress events), %d cache hits\n",
			t.name, t.sess.Parallelism(), misses, t.cells.Load(), hits)
	}
	if tenants[0].report == tenants[1].report {
		fmt.Println("reports: byte-identical across tenants (virtual time is deterministic)")
	} else {
		log.Fatal("reports differ — isolation or determinism is broken")
	}

	// Opt-in sharing: hand tenant-serial's cache to a new session. The
	// full evaluation replays from memoized cells — zero simulations.
	shared := tooleval.NewSession(tooleval.WithCache(tenants[0].sess.Cache()))
	before, beforeMisses := shared.Stats()
	if _, err := shared.Evaluate(ctx, profile, scale); err != nil {
		log.Fatal(err)
	}
	after, afterMisses := shared.Stats()
	fmt.Printf("shared-cache session: %d new simulations, %d cells served from the shared cache\n",
		afterMisses-beforeMisses, after-before)
}
