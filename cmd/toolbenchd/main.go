// Command toolbenchd serves the tool-evaluation methodology as a
// long-running multi-tenant HTTP daemon. Tenants POST ExperimentSpec
// batches to /v1/jobs, stream the sweep lifecycle back as server-sent
// events, and fetch the final report from /v1/jobs/{id}/report; see
// internal/server for the API and README.md for examples.
//
// SIGTERM or SIGINT starts a graceful drain: the daemon stops
// admitting jobs, finishes in-flight sweeps (bounded by
// -drain-timeout), flushes the durable store, and exits 0. A second
// signal exits immediately.
//
// SIGHUP hot-reloads the quota-tier catalog from -tier-file without
// dropping in-flight jobs: the file is re-read, validated whole (a bad
// file is rejected, keeping the live config), and existing tenants
// move to their new tiers as they go idle. Without -tier-file, SIGHUP
// is a logged no-op.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"tooleval/internal/server"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:]); err != nil {
		log.Fatalf("toolbenchd: %v", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("toolbenchd", flag.ExitOnError)
	cfg := server.Config{
		Tiers:       make(map[string]server.QuotaTier),
		TenantTiers: make(map[string]string),
		Logf:        log.Printf,
	}
	fs.StringVar(&cfg.Addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.Parallelism, "j", 0, "per-tenant worker parallelism (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.CacheStripes, "cache-stripes", 0, "shared cache lock stripes (0 = default)")
	fs.IntVar(&cfg.CacheCapacity, "cache-cap", 0, "shared cache capacity in cells, LRU-evicted (0 = unbounded)")
	fs.StringVar(&cfg.StoreDir, "store", "", "durable result store directory (empty = memory only)")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", 0, "graceful drain deadline (0 = 30s)")
	fs.IntVar(&cfg.MaxJobsRetained, "retain-jobs", 0, "finished jobs retained per tenant (0 = 64)")
	fs.IntVar(&cfg.MaxSpecsPerJob, "max-specs", 0, "largest accepted batch (0 = 1024)")
	fs.StringVar(&cfg.DefaultTier, "default-tier", "", "tier for unmapped tenants (empty = unlimited)")
	fs.Func("tier", "quota tier `name=cells:N,vt:DUR,jobs:N` (repeatable; omitted budgets are unlimited)",
		func(v string) error {
			t, err := server.ParseTier(v)
			if err != nil {
				return err
			}
			cfg.Tiers[t.Name] = t
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
	tierFile := fs.String("tier-file", "", "tier catalog `file` (tier/tenant-tier/default-tier directives); re-read on SIGHUP")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: toolbenchd [flags]\n\n")
		fmt.Fprintf(fs.Output(), "Serve the evaluation methodology as a multi-tenant HTTP daemon.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	if *tierFile != "" {
		tiers, def, tenants, err := loadTierFile(*tierFile)
		if err != nil {
			return err
		}
		mergeTierCatalog(&cfg, tiers, def, tenants)
	}

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}

	// First SIGTERM/SIGINT cancels ctx and starts the drain; a second
	// one restores default handling, so it kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	// SIGHUP: re-read the tier file and swap the catalog in place.
	// In-flight jobs keep their tiers; a rejected file changes nothing.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-hup:
			case <-ctx.Done():
				return
			}
			if *tierFile == "" {
				log.Printf("toolbenchd: SIGHUP ignored (no -tier-file to reload)")
				continue
			}
			tiers, def, tenants, err := loadTierFile(*tierFile)
			if err != nil {
				log.Printf("toolbenchd: SIGHUP reload rejected: %v", err)
				continue
			}
			reloaded := cfg // copy of the flag-derived baseline
			mergeTierCatalog(&reloaded, tiers, def, tenants)
			if err := srv.ReloadTiers(reloaded.Tiers, reloaded.DefaultTier, reloaded.TenantTiers); err != nil {
				log.Printf("toolbenchd: SIGHUP reload rejected: %v", err)
			}
		}
	}()

	return srv.ListenAndServe(ctx)
}

// loadTierFile reads and parses one tier-catalog file.
func loadTierFile(path string) (map[string]server.QuotaTier, string, map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", nil, fmt.Errorf("tier file: %w", err)
	}
	defer f.Close()
	tiers, def, tenants, err := server.ParseTierConfig(f)
	if err != nil {
		return nil, "", nil, fmt.Errorf("tier file %s: %w", path, err)
	}
	return tiers, def, tenants, nil
}

// mergeTierCatalog overlays a tier file onto the flag-derived config:
// file entries win per key, and a default-tier directive overrides the
// flag. The merged maps are fresh — cfg's originals are not mutated, so
// the flag baseline survives for the next SIGHUP to merge onto.
func mergeTierCatalog(cfg *server.Config, tiers map[string]server.QuotaTier, def string, tenants map[string]string) {
	merged := make(map[string]server.QuotaTier, len(cfg.Tiers)+len(tiers))
	for k, v := range cfg.Tiers {
		merged[k] = v
	}
	for k, v := range tiers {
		merged[k] = v
	}
	cfg.Tiers = merged
	mergedTenants := make(map[string]string, len(cfg.TenantTiers)+len(tenants))
	for k, v := range cfg.TenantTiers {
		mergedTenants[k] = v
	}
	for k, v := range tenants {
		mergedTenants[k] = v
	}
	cfg.TenantTiers = mergedTenants
	if def != "" {
		cfg.DefaultTier = def
	}
}
