// Command toolbench-worker is the daemon side of the distributed
// sweep: it serves simulation cells over the small JSON-over-HTTP cell
// protocol (POST /v1/cells) to a `toolbench -workers ...` coordinator.
// Every cell is a pure function of its content key, so the worker
// recomputes exactly what the coordinator would have computed locally
// — results are byte-identical by construction — and memoizes by the
// same key through a local worker pool, optionally backed by its own
// durable -store tier.
//
// A coordinator running a different simulation-engine or wire-protocol
// version is refused with a typed 409 — never answered with a result
// computed under the wrong engine. GET /healthz reports liveness; GET
// /statsz reports the engine version, uptime, and cache counters.
//
// SIGTERM or SIGINT drains gracefully: in-flight cells finish, the
// store is flushed, and the daemon exits 0. A second signal kills it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"tooleval/internal/bench"
	"tooleval/internal/remote"
	"tooleval/internal/runner"
	"tooleval/internal/sim"
	"tooleval/internal/store"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:]); err != nil {
		log.Fatalf("toolbench-worker: %v", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("toolbench-worker", flag.ExitOnError)
	addr := fs.String("addr", ":8701", "listen address")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations")
	storeDir := fs.String("store", "", "durable result store directory (empty = memory only; each worker needs its own)")
	drain := fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline for in-flight cells")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: toolbench-worker [flags]\n\n")
		fmt.Fprintf(fs.Output(), "Serve simulation cells to a `toolbench -workers ...` coordinator.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *jobs < 1 {
		return fmt.Errorf("-j %d: need at least one worker", *jobs)
	}

	x := runner.New(*jobs)
	if *storeDir != "" {
		st, err := store.Open(*storeDir, sim.EngineVersion)
		if err != nil {
			return fmt.Errorf("-store %s: %w", *storeDir, err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				log.Printf("toolbench-worker: closing store: %v", err)
			}
		}()
		x.Cache().SetTier(st)
	}

	w := remote.NewWorker(x, bench.ComputeCell)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: w.Handler()}
	log.Printf("toolbench-worker: listening on %s (engine v%d, protocol v%d, -j %d)",
		ln.Addr(), sim.EngineVersion, remote.ProtocolVersion, *jobs)

	// First SIGTERM/SIGINT starts the drain; a second one restores
	// default handling, so it kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			srv.Close()
		}
	}()

	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("toolbench-worker: drained, exiting")
	return nil
}
