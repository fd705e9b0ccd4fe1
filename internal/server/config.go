// Package server is toolbenchd: the evaluation methodology as a
// long-running, multi-tenant HTTP service. A tenant POSTs an
// ExperimentSpec batch to /v1/jobs and either streams the sweep's
// lifecycle back as server-sent events (SpecStart/CellEvent/SpecDone
// plus PhaseStart/PhaseDone) or waits for the JSON report; the final
// report is also fetchable at /v1/jobs/{id}/report, with the full
// multi-level evaluation embedded exactly as core.MarshalReport
// renders it.
//
// Each tenant gets its own tooleval.Session under a configured quota
// tier (cell and virtual-time budgets, concurrent-job limit), while
// every session memoizes into one shared striped cache — optionally
// backed by the durable result store — so concurrent tenants
// requesting overlapping matrices deduplicate the simulation work.
// Content-keyed memoization makes the sharing tenant-transparent:
// virtual time keeps every cell deterministic, so a report served from
// another tenant's cells is byte-identical to one simulated fresh.
//
// Production behavior the package owns: typed 429s on quota refusal
// (a *tooleval.QuotaError rides the error JSON), per-job context
// cancellation when a streaming client disconnects (in-flight specs
// abort; cancelled cells are retracted, never cached), graceful drain
// (stop admitting, finish in-flight sweeps under a deadline, flush the
// store), and /healthz + /statsz observability.
package server

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"time"

	"tooleval"
)

// QuotaTier bounds what one tenant may consume. The zero value of any
// field means unlimited for that resource.
type QuotaTier struct {
	// Name identifies the tier in config and /statsz.
	Name string
	// MaxCells caps how many cells the tenant's session may simulate
	// over its lifetime (cache hits are free).
	MaxCells int64
	// MaxVirtualTime caps the summed virtual wall-clock the tenant's
	// session may simulate.
	MaxVirtualTime time.Duration
	// MaxConcurrentJobs caps how many jobs the tenant may have in
	// flight at once; the breach is a typed 429, not a queue.
	MaxConcurrentJobs int
}

// Config parameterizes a Server. The zero value is a working
// single-tier development config; Normalize fills the defaults.
type Config struct {
	// Addr is the listen address for ListenAndServe (":8080" style).
	Addr string
	// Parallelism bounds each tenant session's concurrent simulations
	// (0 = GOMAXPROCS).
	Parallelism int
	// CacheStripes splits the shared cell cache into independently
	// locked segments (0 = a sensible default for many tenants).
	CacheStripes int
	// CacheCapacity bounds the shared cache to n cells with LRU
	// eviction (0 = unbounded).
	CacheCapacity int
	// StoreDir attaches the durable result store in this directory to
	// the shared cache ("" = memory only). The server owns the store
	// and flushes it on drain.
	StoreDir string
	// OpenStore overrides how the StoreDir store is opened; nil =
	// tooleval.OpenResultStore. The chaos suite injects stores wrapped
	// with fault-injecting files and tuned circuit breakers here.
	OpenStore func(dir string) (*tooleval.ResultStore, error)
	// DrainTimeout bounds how long Shutdown waits for in-flight sweeps
	// before cancelling them (0 = 30s).
	DrainTimeout time.Duration
	// Tiers is the quota-tier catalog by name. A tier named
	// DefaultTier must exist if any tenant maps to it.
	Tiers map[string]QuotaTier
	// DefaultTier names the tier for tenants absent from TenantTiers
	// ("" = a built-in unlimited tier).
	DefaultTier string
	// TenantTiers maps tenant id -> tier name for tenants with a
	// non-default tier.
	TenantTiers map[string]string
	// MaxJobsRetained bounds how many finished jobs are kept per
	// tenant for report fetching; the oldest finished job is evicted
	// when a new one completes (0 = 64). In-flight jobs are never
	// evicted.
	MaxJobsRetained int
	// MaxSpecsPerJob rejects batches larger than this up front
	// (0 = 1024).
	MaxSpecsPerJob int
	// ResumeWindow is how long a streaming job survives with no
	// attached subscriber before its sweep is cancelled — the grace
	// period for a dropped SSE client to reconnect with Last-Event-ID
	// (0 = 15s; negative = cancel immediately on disconnect, the
	// pre-resume behavior).
	ResumeWindow time.Duration
	// EventBuffer bounds each job's event replay buffer; a subscriber
	// further behind than this sees a "gap" event instead of the
	// evicted entries (0 = 4096).
	EventBuffer int
	// Logf receives one line per lifecycle event (job admitted,
	// drain started, ...); nil disables logging.
	Logf func(format string, args ...any)
}

// Normalize fills defaults in place and validates the tier wiring.
func (c *Config) Normalize() error {
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.CacheStripes <= 0 {
		c.CacheStripes = 16
	}
	if c.MaxJobsRetained <= 0 {
		c.MaxJobsRetained = 64
	}
	if c.MaxSpecsPerJob <= 0 {
		c.MaxSpecsPerJob = 1024
	}
	if c.ResumeWindow == 0 {
		c.ResumeWindow = 15 * time.Second
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 4096
	}
	if c.DefaultTier != "" {
		if _, ok := c.Tiers[c.DefaultTier]; !ok {
			return fmt.Errorf("server: default tier %q is not in the tier catalog", c.DefaultTier)
		}
	}
	for tenant, tier := range c.TenantTiers {
		if _, ok := c.Tiers[tier]; !ok {
			return fmt.Errorf("server: tenant %q maps to unknown tier %q", tenant, tier)
		}
	}
	return nil
}

// tierFor resolves the quota tier for a tenant id: its TenantTiers
// entry, else the default tier, else unlimited.
func (c *Config) tierFor(tenant string) QuotaTier {
	if name, ok := c.TenantTiers[tenant]; ok {
		return c.Tiers[name]
	}
	if c.DefaultTier != "" {
		return c.Tiers[c.DefaultTier]
	}
	return QuotaTier{Name: "unlimited"}
}

// tenantIDPattern is the accepted shape of an X-Tenant header value.
var tenantIDPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// ValidTenantID reports whether id is acceptable as a tenant
// identifier (it becomes a map key and appears in /statsz).
func ValidTenantID(id string) bool { return tenantIDPattern.MatchString(id) }

// ParseTier parses one -tier flag value of the form
//
//	name=cells:<n>,vt:<duration>,jobs:<n>
//
// with any subset of the three budgets (omitted = unlimited), e.g.
// "free=cells:500,jobs:2" or "batch=vt:10m".
func ParseTier(s string) (QuotaTier, error) {
	name, budgets, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return QuotaTier{}, fmt.Errorf("tier %q: want name=budget[,budget...]", s)
	}
	t := QuotaTier{Name: name}
	if budgets == "" {
		return t, nil
	}
	for _, b := range strings.Split(budgets, ",") {
		k, v, ok := strings.Cut(b, ":")
		if !ok {
			return QuotaTier{}, fmt.Errorf("tier %q: budget %q: want key:value", s, b)
		}
		switch k {
		case "cells":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return QuotaTier{}, fmt.Errorf("tier %q: cells %q: want a non-negative integer", s, v)
			}
			t.MaxCells = n
		case "vt":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return QuotaTier{}, fmt.Errorf("tier %q: vt %q: want a non-negative duration", s, v)
			}
			t.MaxVirtualTime = d
		case "jobs":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return QuotaTier{}, fmt.Errorf("tier %q: jobs %q: want a non-negative integer", s, v)
			}
			t.MaxConcurrentJobs = n
		default:
			return QuotaTier{}, fmt.Errorf("tier %q: unknown budget %q (want cells, vt, or jobs)", s, k)
		}
	}
	return t, nil
}

// ParseTierConfig reads a tier-catalog file (the -tier-file flag, re-
// read on SIGHUP): one directive per line, in exactly the grammar the
// command-line flags use —
//
//	tier <name>=<budgets>        # ParseTier form, e.g. free=cells:500,jobs:2
//	tenant-tier <tenant>=<tier>  # ParseTenantTier form
//	default-tier <name>
//
// Blank lines and #-comments are ignored. The catalog is returned
// unvalidated; ReloadTiers (or Normalize) checks the wiring, so a bad
// file rejects atomically without disturbing the live config.
func ParseTierConfig(r io.Reader) (tiers map[string]QuotaTier, defaultTier string, tenantTiers map[string]string, err error) {
	tiers = make(map[string]QuotaTier)
	tenantTiers = make(map[string]string)
	sc := bufio.NewScanner(r)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		directive, arg, ok := strings.Cut(line, " ")
		arg = strings.TrimSpace(arg)
		if !ok || arg == "" {
			return nil, "", nil, fmt.Errorf("tier config line %d: want \"<directive> <value>\", got %q", lineNo, line)
		}
		switch directive {
		case "tier":
			t, perr := ParseTier(arg)
			if perr != nil {
				return nil, "", nil, fmt.Errorf("tier config line %d: %w", lineNo, perr)
			}
			tiers[t.Name] = t
		case "tenant-tier":
			tenant, tier, perr := ParseTenantTier(arg)
			if perr != nil {
				return nil, "", nil, fmt.Errorf("tier config line %d: %w", lineNo, perr)
			}
			tenantTiers[tenant] = tier
		case "default-tier":
			defaultTier = arg
		default:
			return nil, "", nil, fmt.Errorf("tier config line %d: unknown directive %q (want tier, tenant-tier, or default-tier)", lineNo, directive)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, "", nil, fmt.Errorf("tier config: %w", err)
	}
	return tiers, defaultTier, tenantTiers, nil
}

// ParseTenantTier parses one -tenant-tier flag value "tenant=tier".
func ParseTenantTier(s string) (tenant, tier string, err error) {
	tenant, tier, ok := strings.Cut(s, "=")
	if !ok || tenant == "" || tier == "" {
		return "", "", fmt.Errorf("tenant-tier %q: want tenant=tier", s)
	}
	if !ValidTenantID(tenant) {
		return "", "", fmt.Errorf("tenant-tier %q: invalid tenant id", s)
	}
	return tenant, tier, nil
}
