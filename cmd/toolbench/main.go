// Command toolbench regenerates every table and figure of the paper's
// evaluation section and runs the full multi-level methodology.
//
// Usage:
//
//	toolbench [flags] <experiment>
//
// Experiments: table3, table4, fig2, fig3, fig4, fig5, fig6, fig7, fig8,
// adl, trace, report, all, list.
//
// Flags:
//
//	-scale f     workload scale for APL figures (default 1.0 = paper scale)
//	-out dir     also write .txt reports and .dat series files into dir
//	-profile p   weight profile for the report (end-user, developer,
//	             system-manager)
//	-chart       render figures as ASCII charts instead of tables
//	-format f    report rendering for `report`/`all`: text (default) or
//	             json (the machine-readable evaluation)
//	-j n         run up to n independent simulations concurrently
//	             (default GOMAXPROCS; 1 = the serial sweep). Virtual time
//	             keeps every cell deterministic, so output is identical
//	             at any -j; repeated cells (e.g. `all` followed by its
//	             closing report) are memoized and simulate once.
//	-workers a,b distribute the sweep across toolbench-worker daemons at
//	             the given host:port addresses, routing each cell by its
//	             content key (rendezvous hashing). Output stays
//	             byte-identical to a local run — even if a worker dies
//	             mid-sweep (its cells fail over to survivors). -j bounds
//	             the in-flight RPCs.
//	-progress    stream live figure/phase progress to stderr (one line
//	             per table/figure starting and finishing). Stdout stays
//	             byte-identical with and without it.
//	-store dir   memoize results durably in dir (an append-only,
//	             checksummed segment file keyed by cell content). A
//	             second run over an intact store re-simulates nothing;
//	             a corrupted or engine-stale store is recovered by
//	             re-simulating, and output stays byte-identical either
//	             way.
//	-stats       print the cache hit/miss counters to stderr after the
//	             run (misses = cells actually simulated)
//	-cpuprofile f  write a CPU profile of the sweep to f (pprof format)
//	-memprofile f  write a heap profile taken after the sweep to f
//
// Every invocation builds one tooleval.Session from the flags and runs
// the experiments through it; Ctrl-C cancels the session's context and
// aborts the sweep between simulation cells.
//
// Exit status: 0 on success or after -h, 2 on a usage error (an unknown
// flag, a malformed flag value), 1 on any other failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"

	"tooleval"
	"tooleval/internal/core"
	"tooleval/internal/paperdata"
	"tooleval/internal/usability"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := exitCode(run(ctx, os.Args[1:], os.Stdout), os.Stderr)
	stop()
	os.Exit(code)
}

// usageError is a command line the flag parser rejected; the parser has
// already printed it together with the usage text.
type usageError struct{ err error }

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

// exitCode maps run's error to the process exit status: 0 on success
// or -h, 2 on a usage error, and 1 otherwise, after printing the error
// to errw.
func exitCode(err error, errw io.Writer) int {
	var uerr *usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &uerr):
		return 2
	}
	fmt.Fprintln(errw, "toolbench:", err)
	return 1
}

type config struct {
	scale      float64
	outDir     string
	profile    string
	chart      bool
	format     string
	jobs       int
	workers    string
	progress   bool
	store      string
	stats      bool
	cpuprofile string
	memprofile string
	exp        string // the one positional argument
}

// experiments lists the experiment ids in paper order.
func experiments() []string { return tooleval.Experiments() }

func run(ctx context.Context, args []string, w io.Writer) error {
	return runIO(ctx, args, w, os.Stderr)
}

// parseFlags reads the command line into a config. -h prints the usage
// to w and returns flag.ErrHelp; a flag the parser rejects is printed to
// w with the usage and comes back as a *usageError. Flag values are not
// validated here: runIO does that.
func parseFlags(args []string, w io.Writer) (config, error) {
	fs := flag.NewFlagSet("toolbench", flag.ContinueOnError)
	fs.SetOutput(w)
	cfg := config{}
	fs.Float64Var(&cfg.scale, "scale", 1.0, "workload scale for APL figures (1.0 = paper scale)")
	fs.StringVar(&cfg.outDir, "out", "", "directory for .txt/.dat artifacts (optional)")
	fs.StringVar(&cfg.profile, "profile", "end-user", "weight profile: end-user, developer, system-manager")
	fs.BoolVar(&cfg.chart, "chart", false, "render figures as ASCII charts instead of tables")
	fs.StringVar(&cfg.format, "format", "text", `report rendering for report/all: "text" or "json"`)
	fs.IntVar(&cfg.jobs, "j", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = serial)")
	fs.StringVar(&cfg.workers, "workers", "", "comma-separated toolbench-worker addresses to distribute the sweep across (host:port,host:port)")
	fs.BoolVar(&cfg.progress, "progress", false, "stream live figure/phase progress to stderr")
	fs.StringVar(&cfg.store, "store", "", "directory for the durable result store (a second run over an intact store re-simulates nothing)")
	fs.BoolVar(&cfg.stats, "stats", false, "print cache hit/miss counters to stderr after the run")
	fs.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile of the sweep to this file")
	fs.StringVar(&cfg.memprofile, "memprofile", "", "write a post-sweep heap profile to this file")
	fs.Usage = func() {
		fmt.Fprintf(w, "usage: toolbench [flags] <experiment>\n\n")
		fmt.Fprintf(w, "Regenerate the paper's tables and figures and run the evaluation.\n")
		fmt.Fprintf(w, "Experiments: %s, trace, report, all, list.\n\n", strings.Join(experiments(), ", "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cfg, err
		}
		return cfg, &usageError{err}
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return cfg, fmt.Errorf("need exactly one experiment (one of %v, trace, report, all, list)", experiments())
	}
	cfg.exp = fs.Arg(0)
	return cfg, nil
}

// runIO is run with the progress stream explicit, so tests can capture
// it. Experiment output goes to w; -progress lines and the usage text
// go to errw only — w stays byte-identical whether progress is on or
// off.
func runIO(ctx context.Context, args []string, w, errw io.Writer) (err error) {
	cfg, err := parseFlags(args, errw)
	if err != nil {
		return err
	}
	if cfg.jobs < 1 {
		return fmt.Errorf("-j %d: need at least one worker", cfg.jobs)
	}
	nodes := splitNodes(cfg.workers)
	if dup := firstDuplicate(nodes); dup != "" {
		return fmt.Errorf("-workers: %s is listed twice", dup)
	}
	if cfg.format != "text" && cfg.format != "json" {
		return fmt.Errorf("-format %q: want text or json", cfg.format)
	}
	if cfg.format == "json" && cfg.exp != "report" && cfg.exp != "all" {
		return fmt.Errorf("-format json only applies to report and all (got %q)", cfg.exp)
	}
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
	}
	// Profiling hooks: perf work on the simulation core needs the real
	// sweeps profileable, not just the Go test harness.
	if cfg.cpuprofile != "" {
		f, err := os.Create(cfg.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if cfg.memprofile != "" {
		defer func() {
			if werr := writeHeapProfile(cfg.memprofile); werr != nil && err == nil {
				err = werr
			}
		}()
	}
	opts := []tooleval.Option{tooleval.WithParallelism(cfg.jobs)}
	if len(nodes) > 0 {
		opts = append(opts, tooleval.WithRemoteExecutor(nodes...))
	}
	if cfg.progress {
		opts = append(opts, tooleval.WithEvents(progressSink(errw)))
	}
	if cfg.store != "" {
		st, err := tooleval.OpenResultStore(cfg.store)
		if err != nil {
			return fmt.Errorf("-store %s: %w", cfg.store, err)
		}
		defer func() {
			// Close syncs the segment; a latched write error means some
			// results were not persisted and must fail the run.
			if cerr := st.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		cache := tooleval.NewCache()
		cache.SetTier(st)
		opts = append(opts, tooleval.WithCache(cache))
	}
	sess := tooleval.NewSession(opts...)
	if cfg.stats {
		defer func() {
			hits, misses := sess.Stats()
			fmt.Fprintf(errw, "toolbench: cache stats: hits=%d misses=%d\n", hits, misses)
			if ns := sess.NodeStats(); len(ns) > 0 {
				fmt.Fprintf(errw, "toolbench: workers:\n")
				fmt.Fprintf(errw, "  %-28s %8s %10s %8s %8s  %s\n", "node", "sent", "completed", "retried", "ejected", "state")
				for _, n := range ns {
					fmt.Fprintf(errw, "  %-28s %8d %10d %8d %8d  %s\n", n.Node, n.Sent, n.Completed, n.Retried, n.Ejected, n.State)
				}
			}
		}()
	}
	switch cfg.exp {
	case "list":
		fmt.Fprintln(w, "experiments:", experiments())
		fmt.Fprintln(w, "tools:", sess.Tools())
		fmt.Fprintln(w, "suite (Table 2):")
		classes := make([]string, 0, len(paperdata.SuiteTable2))
		for class := range paperdata.SuiteTable2 {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			fmt.Fprintf(w, "  %-24s %v\n", class, paperdata.SuiteTable2[class])
		}
		return nil
	case "all":
		// With -format json the stream must stay machine-readable:
		// experiments still run (and still write -out artifacts) but
		// only the closing JSON report reaches w.
		expOut := w
		if cfg.format == "json" {
			expOut = io.Discard
		}
		for _, e := range experiments() {
			if err := runExperiment(ctx, sess, e, cfg, expOut); err != nil {
				return err
			}
		}
		return runReport(ctx, sess, cfg, w)
	case "report":
		return runReport(ctx, sess, cfg, w)
	default:
		return runExperiment(ctx, sess, cfg.exp, cfg, w)
	}
}

// splitNodes parses the -workers flag: comma-separated addresses,
// blanks dropped.
func splitNodes(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// firstDuplicate returns the first address that appears twice in
// nodes, or "" when all are distinct. The session refuses a duplicated
// worker list by panicking; the CLI reports it as a flag error instead.
func firstDuplicate(nodes []string) string {
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if seen[n] {
			return n
		}
		seen[n] = true
	}
	return ""
}

// progressSink renders the session's typed event stream as live
// phase-level progress lines: long `all` sweeps show which table or
// figure is simulating instead of going silent for the whole run.
// Events arrive from concurrent worker goroutines, so the sink
// serializes its writes.
func progressSink(errw io.Writer) func(tooleval.Event) {
	var mu sync.Mutex
	return func(ev tooleval.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch e := ev.(type) {
		case tooleval.PhaseStart:
			fmt.Fprintf(errw, "toolbench: %s ...\n", e.Phase)
		case tooleval.PhaseDone:
			if e.Err != nil {
				fmt.Fprintf(errw, "toolbench: %s failed: %v\n", e.Phase, e.Err)
			} else {
				fmt.Fprintf(errw, "toolbench: %s done\n", e.Phase)
			}
		}
	}
}

// writeHeapProfile snapshots the live heap (after a GC, so the profile
// reflects retained memory rather than collectable garbage) into path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runExperiment(ctx context.Context, sess *tooleval.Session, exp string, cfg config, w io.Writer) error {
	emit := func(name, text string) error {
		fmt.Fprintln(w, text)
		if cfg.outDir == "" {
			return nil
		}
		return os.WriteFile(filepath.Join(cfg.outDir, name), []byte(text), 0o644)
	}
	emitDat := func(name string, fig *tooleval.FigureResult) error {
		if cfg.outDir == "" {
			return nil
		}
		return os.WriteFile(filepath.Join(cfg.outDir, name), []byte(fig.DatFile()), 0o644)
	}
	render := func(fig *tooleval.FigureResult) string {
		if cfg.chart {
			return fig.ASCIIChart(72, 22)
		}
		return fig.Render()
	}
	emitFig := func(fig *tooleval.FigureResult, id string) error {
		if err := emitDat(id+".dat", fig); err != nil {
			return err
		}
		return emit(id+".txt", render(fig))
	}
	switch exp {
	case "table3":
		t3, err := sess.Table3(ctx)
		if err != nil {
			return err
		}
		return emit("table3.txt", t3.Render())
	case "table4":
		rankings, err := sess.Table4(ctx, 4)
		if err != nil {
			return err
		}
		text := core.RenderTable4(rankings, "sun-ethernet") + "\n" + core.RenderTable4(rankings, "sun-atm-wan")
		return emit("table4.txt", text)
	case "fig2":
		fig, err := sess.Fig2(ctx, 4)
		if err != nil {
			return err
		}
		return emitFig(fig, exp)
	case "fig3":
		fig, err := sess.Fig3(ctx, 4)
		if err != nil {
			return err
		}
		return emitFig(fig, exp)
	case "fig4":
		fig, err := sess.Fig4(ctx, 4)
		if err != nil {
			return err
		}
		return emitFig(fig, exp)
	case "fig5", "fig6", "fig7", "fig8":
		fig, _, err := sess.APLFigure(ctx, exp, cfg.scale)
		if err != nil {
			return err
		}
		return emitFig(fig, exp)
	case "trace":
		// Execution-trace demo: the ADL debugging-support criterion.
		pf, err := tooleval.GetPlatform("sun-ethernet")
		if err != nil {
			return err
		}
		for _, tool := range tooleval.ToolNames() {
			events, err := sess.TraceRun(ctx, pf.Key, tool, 2048, 28)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "--- %s: 2 KB ping-pong on %s (first %d events) ---\n", tool, pf.Name, len(events))
			for _, e := range events {
				fmt.Fprintln(w, e)
			}
			fmt.Fprintln(w)
		}
		return nil
	case "adl":
		text, err := usability.Render()
		if err != nil {
			return err
		}
		names := tooleval.PrimitiveNames()
		prims := "Table 1: primitive name map\n"
		// Map iteration order is random per process; sort so repeated
		// runs (and -j variations) emit byte-identical output.
		order := make([]string, 0, len(names))
		for prim := range names {
			order = append(order, prim)
		}
		sort.Strings(order)
		for _, prim := range order {
			byTool := names[prim]
			prims += fmt.Sprintf("  %-14s express=%-22s p4=%-22s pvm=%s\n",
				prim, byTool["express"], byTool["p4"], byTool["pvm"])
		}
		return emit("adl.txt", prims+"\n"+text)
	default:
		return fmt.Errorf("unknown experiment %q (want one of %v, trace, report, all, list)", exp, experiments())
	}
}

func runReport(ctx context.Context, sess *tooleval.Session, cfg config, w io.Writer) error {
	profile, err := tooleval.ProfileByName(cfg.profile)
	if err != nil {
		return err
	}
	ev, err := sess.Evaluate(ctx, profile, cfg.scale)
	if err != nil {
		return err
	}
	text := core.RenderEvaluation(ev)
	marshal := func() ([]byte, error) { return core.MarshalReport(ev) }
	if cfg.format == "json" {
		blob, err := marshal()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(blob))
	} else {
		fmt.Fprintln(w, text)
	}
	if cfg.outDir != "" {
		if err := os.WriteFile(filepath.Join(cfg.outDir, "report-"+profile.Name+".txt"), []byte(text), 0o644); err != nil {
			return err
		}
		blob, err := marshal()
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(cfg.outDir, "report-"+profile.Name+".json"), blob, 0o644)
	}
	return nil
}
