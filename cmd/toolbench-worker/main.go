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
// SIGTERM, SIGINT or SIGHUP drains gracefully: in-flight cells finish,
// the store is flushed and closed, and the daemon exits 0. A second
// signal kills it.
//
// Exit status: 0 after -h or a clean drain, 2 on a usage error (an
// unknown flag, a malformed flag value), 1 when the flags are rejected
// before listening, the server fails, or the store fails to close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // parseFlags has printed the error and the usage
	}
	if err := run(cfg); err != nil {
		log.Fatalf("toolbench-worker: %v", err)
	}
}

type config struct {
	addr     string
	jobs     int
	storeDir string
	drain    time.Duration
	args     []string // positional arguments; the daemon takes none
}

// parseFlags reads the command line into a config. A usage error is
// printed to w together with the usage text; -h prints the usage and
// returns flag.ErrHelp. The values are not validated here: run does
// that.
func parseFlags(args []string, w io.Writer) (config, error) {
	fs := flag.NewFlagSet("toolbench-worker", flag.ContinueOnError)
	fs.SetOutput(w)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", ":8701", "listen address")
	fs.IntVar(&cfg.jobs, "j", runtime.GOMAXPROCS(0), "max concurrent simulations")
	fs.StringVar(&cfg.storeDir, "store", "", "durable result store directory (empty = memory only; each worker needs its own)")
	fs.DurationVar(&cfg.drain, "drain-timeout", 30*time.Second, "graceful shutdown deadline for in-flight cells")
	fs.Usage = func() {
		fmt.Fprintf(w, "usage: toolbench-worker [flags]\n\n")
		fmt.Fprintf(w, "Serve simulation cells to a `toolbench -workers ...` coordinator.\n\n")
		fs.PrintDefaults()
	}
	err := fs.Parse(args)
	cfg.args = fs.Args()
	return cfg, err
}

// run serves cells until the first SIGTERM/SIGINT/SIGHUP, then drains.
// The store closes after the drain; a close error fails run.
func run(cfg config) (err error) {
	if len(cfg.args) > 0 {
		return fmt.Errorf("unexpected arguments: %v", cfg.args)
	}
	if cfg.jobs < 1 {
		return fmt.Errorf("-j %d: need at least one worker", cfg.jobs)
	}

	x := runner.New(cfg.jobs)
	if cfg.storeDir != "" {
		st, openErr := store.Open(cfg.storeDir, sim.EngineVersion)
		if openErr != nil {
			return fmt.Errorf("-store %s: %w", cfg.storeDir, openErr)
		}
		defer func() { err = errors.Join(err, st.Close()) }()
		x.Cache().SetTier(st)
	}

	w := remote.NewWorker(x, bench.ComputeCell)
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: w.Handler()}
	log.Printf("toolbench-worker: listening on %s (engine v%d, protocol v%d, -j %d)",
		ln.Addr(), sim.EngineVersion, remote.ProtocolVersion, cfg.jobs)

	// First SIGTERM/SIGINT/SIGHUP starts the drain; a second one
	// restores default handling, so it kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
		dctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
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
