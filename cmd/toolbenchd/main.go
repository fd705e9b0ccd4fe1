// Command toolbenchd serves the tool-evaluation methodology as a
// long-running multi-tenant HTTP daemon. Tenants POST ExperimentSpec
// batches to /v1/jobs, stream the sweep lifecycle back as server-sent
// events, and fetch the final report from /v1/jobs/{id}/report; see
// internal/server for the API and README.md for examples.
//
// SIGTERM, SIGINT or SIGHUP starts a graceful drain: the daemon stops
// admitting jobs, finishes in-flight sweeps (bounded by
// -drain-timeout), closes the -store it opened, and exits 0. A second
// signal exits immediately.
//
// Exit status: 0 after -h or a clean drain, 2 on a usage error (an
// unknown flag, a malformed -tier), 1 when the config or -store is
// rejected before listening, the server fails, or the store fails to
// close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"tooleval"
	"tooleval/internal/server"
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
	cfg.Logf = log.Printf
	if err := run(cfg); err != nil {
		log.Fatalf("toolbenchd: %v", err)
	}
}

// options is the parsed command line: the server config plus the
// listen address and store directory the daemon itself owns.
type options struct {
	server.Config
	addr     string
	storeDir string // "" = memory only
}

// parseFlags builds the options from the command line. A usage error
// is printed to w together with the usage text; -h prints the usage
// and returns flag.ErrHelp. The config is not validated here:
// server.New does that.
func parseFlags(args []string, w io.Writer) (options, error) {
	fs := flag.NewFlagSet("toolbenchd", flag.ContinueOnError)
	fs.SetOutput(w)
	cfg := options{Config: server.Config{
		Tiers:       make(map[string]server.QuotaTier),
		TenantTiers: make(map[string]string),
	}}
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.Parallelism, "j", 0, "per-tenant worker parallelism (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.CacheCapacity, "cache-cap", 0, "shared cache capacity in cells, LRU-evicted (0 = unbounded)")
	fs.StringVar(&cfg.storeDir, "store", "", "durable result store directory (empty = memory only)")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", 0, "graceful drain deadline (0 = 30s)")
	fs.IntVar(&cfg.MaxJobsRetained, "retain-jobs", 0, "finished jobs retained per tenant (0 = 64)")
	fs.IntVar(&cfg.MaxSpecsPerJob, "max-specs", 0, "largest accepted batch (0 = 1024)")
	fs.StringVar(&cfg.DefaultTier, "default-tier", "", "tier for unmapped tenants (empty = unlimited)")
	fs.Func("tier", "quota tier `name=cells:N,vt:DUR,jobs:N` (repeatable; omitted budgets are unlimited)",
		func(v string) error {
			name, t, err := server.ParseTier(v)
			if err != nil {
				return err
			}
			cfg.Tiers[name] = t
			return nil
		})
	fs.Func("tenant-tier", "map `tenant=tier` (repeatable)",
		func(v string) error {
			tenant, tier, err := server.ParseTenantTier(v)
			if err != nil {
				return err
			}
			cfg.TenantTiers[tenant] = tier
			return nil
		})
	fs.Usage = func() {
		fmt.Fprintf(w, "usage: toolbenchd [flags]\n\n")
		fmt.Fprintf(w, "Serve the evaluation methodology as a multi-tenant HTTP daemon.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("unexpected arguments: %v", fs.Args())
		fmt.Fprintln(w, err)
		fs.Usage()
		return cfg, err
	}
	return cfg, nil
}

// run builds the server, attaches the -store directory behind its
// shared cache, listens, and serves until the first
// SIGTERM/SIGINT/SIGHUP. Serve returns once the drain is over, so the
// store then closes with every cell synced; a close error fails run.
func run(cfg options) (err error) {
	srv, err := server.New(cfg.Config)
	if err != nil {
		return err
	}
	if cfg.storeDir != "" {
		st, openErr := tooleval.OpenResultStore(cfg.storeDir)
		if openErr != nil {
			return openErr
		}
		srv.Cache().SetTier(st)
		defer func() { err = errors.Join(err, st.Close()) }()
	}
	// First SIGTERM/SIGINT/SIGHUP cancels ctx and starts the drain; a
	// second one restores default handling, so it kills the process.
	// It is armed before the listening line, which supervisors wait on.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	log.Printf("toolbenchd: listening on %s", ln.Addr())
	return srv.Serve(ctx, ln)
}
