// Command toolbench-worker is the daemon side of the distributed
// sweep: it serves simulation cells over the small JSON-over-HTTP cell
// protocol (POST /v1/cells) to a `toolbench -workers ...` coordinator.
// Every cell is a pure function of its content key, so the worker
// recomputes exactly what the coordinator would have computed locally
// — results are byte-identical by construction. The worker only bounds
// how many cells it simulates at once (-j); it keeps no results, since
// the coordinator memoizes every cell it is sent.
//
// A coordinator running a different simulation-engine or wire-protocol
// version is refused with a typed 409 — never answered with a result
// computed under the wrong engine. GET /healthz reports liveness; GET
// /statsz reports the engine and protocol versions, uptime and -j.
//
// SIGTERM, SIGINT or SIGHUP drains gracefully: in-flight cells finish
// and the daemon exits 0. A second signal kills it.
//
// Exit status: 0 after -h or a clean drain, 2 on a usage error (an
// unknown flag, a malformed flag value), 1 when the flags are rejected
// before listening or the server fails.
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
	addr  string
	jobs  int
	drain time.Duration
	args  []string // positional arguments; the daemon takes none
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
func run(cfg config) error {
	if len(cfg.args) > 0 {
		return fmt.Errorf("unexpected arguments: %v", cfg.args)
	}
	if cfg.jobs < 1 {
		return fmt.Errorf("-j %d: need at least one worker", cfg.jobs)
	}

	w := remote.NewWorker(runner.New(cfg.jobs), bench.ComputeCell)
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
