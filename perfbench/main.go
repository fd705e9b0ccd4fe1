// Command perfbench is the repository benchmark. It runs one workload
// for a fixed window, checks every operation's output, and ends its
// standard output with one JSON line of metrics. An untraced run
// reports the end-to-end metrics; a traced run (-trace 1) wraps the
// calls into each layer with timing decorators and reports the
// per-layer metrics instead. See README.md for the workloads and the
// metric table.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload tpl-cold --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tooleval/internal/runner"
)

// slots is the concurrency every workload runs at — simulation
// workers, client connections, worker slots — sized to the two cores
// of the reference machine, so figures compare across hosts only at
// this fixed setting.
const slots = 2

// setupRepeats is how many times a run builds its fixture; setup_s is
// the median, and the last fixture built is the one measured.
const setupRepeats = 5

// traceSlice is how long each untraced or traced phase lasts on a
// workload whose clients run concurrently (daemon-mixed): tracing
// flips for all of them at once, so phases alternate in time.
const traceSlice = 500 * time.Millisecond

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root: the module, its testdata
	out      string // scratch directory for stores and span dumps
	// The daemon-mixed knobs that no source in the repository fixes;
	// README.md reports how the end-to-end metrics depend on them.
	freshCells int     // fresh cells per job
	cacheShare float64 // shared cache capacity as a share of the hot set
}

// fixture is one workload set up and ready to run operations.
type fixture interface {
	// op runs one operation. On a traced op tr is non-nil and ctx
	// carries the op's root span.
	op(ctx context.Context, client, seq int, tr *tracer) opResult
	// check runs the output checks that must wait for the timed window
	// to end, and returns how many operations failed them.
	check(ctx context.Context) (int, error)
	close() error
}

type opResult struct {
	cells int // cell results delivered
	// firstCell is the time from a daemon job's POST to its first SSE
	// cell event; zero on the sweeps.
	firstCell time.Duration
	err       error // failed, refused, or wrong output
}

type workload struct {
	name    string
	clients int // closed-loop clients running ops concurrently
	setup   func(ctx context.Context, cfg config, tr *tracer) (fixture, error)
	// rssOps is the op count at which peak RSS is read, or at the
	// window's end if it comes first; 0 reads it at the end. A workload
	// whose state grows with every op sets it, so that a program that
	// runs more ops in the window does not read as using more memory.
	rssOps int
}

// workloads are described, with the reason for each, in README.md and
// BENCHMARK.json.
var workloads = []workload{
	{name: "tpl-cold", clients: 1, setup: setupTPLCold},
	{name: "paper-all", clients: 1, setup: setupPaperAll},
	// Every fresh cell adds an entry to the store's in-memory index.
	{name: "daemon-mixed", clients: slots, setup: setupDaemonMixed, rssOps: 10000},
	{name: "remote-tpl", clients: 1, setup: setupRemoteTPL},
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err == nil {
		err = run(context.Background(), cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and span dumps")
	fs.IntVar(&cfg.freshCells, "fresh-cells", 1, "daemon-mixed: fresh cells per job")
	fs.Float64Var(&cfg.cacheShare, "cache-share", 0.5, "daemon-mixed: shared cache capacity as a share of the hot set")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.freshCells < 0 || cfg.cacheShare <= 0 {
		return cfg, fmt.Errorf("-fresh-cells %d, -cache-share %g: want a count >= 0 and a share > 0", cfg.freshCells, cfg.cacheShare)
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("-seconds %g: need a positive window", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	cfg.trace = trace == 1
	return cfg, nil
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// opRecord is one finished operation as the client saw it.
type opRecord struct {
	ms, firstCellMS float64
	cells           int
	traced          bool
	failed          bool
}

func run(ctx context.Context, cfg config, w io.Writer) (err error) {
	wl, err := lookupWorkload(cfg.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var fx fixture
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if fx != nil {
			if err := fx.close(); err != nil {
				return err
			}
		}
		start := time.Now()
		fx, err = wl.setup(ctx, cfg, tr)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			return fmt.Errorf("%s setup: %w", wl.name, err)
		}
	}
	defer func() {
		if cerr := fx.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	runtime.GC()
	rt0 := readRuntime()
	ops, elapsed, rss := window(ctx, cfg, wl, fx, tr)
	rtDelta := readRuntime().sub(rt0)

	e2e := endToEndMetrics(ops, elapsed, median(setups), rss, rtDelta)

	failed := 0
	for _, o := range ops {
		if o.failed {
			failed++
		}
	}
	checkFailed, err := fx.check(ctx)
	if err != nil {
		return fmt.Errorf("%s check: %w", wl.name, err)
	}
	failed = min(failed+checkFailed, len(ops))

	if !cfg.trace {
		writeFirstCell(w, ops)
		return report(w, endToEnd, e2e, len(ops), failed)
	}
	vals, err := layerMetrics(tr, ops, rtDelta)
	if err != nil {
		return err
	}
	if err := tr.writeSpans(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, cfg.seed))); err != nil {
		return err
	}
	return report(w, perLayer, vals, len(ops), failed)
}

// window runs closed-loop clients until cfg.seconds have passed; the
// op in flight at the deadline completes and counts. It returns every
// op, the time until the last one finished, and the peak RSS in MiB
// read as wl.rssOps says, before the output checks, which hold state of
// their own.
func window(ctx context.Context, cfg config, wl workload, fx fixture, tr *tracer) ([]opRecord, time.Duration, float64) {
	clients := wl.clients
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	stop := make(chan struct{})
	var slicer sync.WaitGroup
	if tr != nil && clients > 1 {
		// Concurrent clients share the traced layers, so tracing flips
		// for all of them at once, in alternating time slices.
		slice := min(traceSlice, deadline.Sub(start)/4)
		slicer.Add(1)
		go func() {
			defer slicer.Done()
			tick := time.NewTicker(slice)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					tr.active.Store(!tr.active.Load())
				case <-stop:
					return
				}
			}
		}()
	}

	var mu sync.Mutex
	var ops []opRecord
	var rss float64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			// A traced run needs an untraced and a traced op at least.
			for seq := 0; time.Now().Before(deadline) || (tr != nil && clients == 1 && seq < 2); seq++ {
				traced := false
				if tr != nil {
					if clients == 1 {
						traced = seq%2 == 1
						tr.active.Store(traced)
					} else {
						traced = tr.active.Load()
					}
				}
				rec := runOp(ctx, fx, client, seq, tr, traced)
				mu.Lock()
				ops = append(ops, rec)
				if len(ops) == wl.rssOps {
					rss = peakRSSMiB()
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	slicer.Wait()
	if tr != nil {
		tr.active.Store(false)
	}
	if rss == 0 {
		rss = peakRSSMiB()
	}
	return ops, elapsed, rss
}

func runOp(ctx context.Context, fx fixture, client, seq int, tr *tracer, traced bool) opRecord {
	var opTr *tracer
	var id, t0 int64
	if traced {
		opTr = tr
		id = tr.newID()
		t0 = tr.now()
		ctx = withSpan(ctx, id, id)
	}
	start := time.Now()
	res := fx.op(ctx, client, seq, opTr)
	d := time.Since(start)
	if traced {
		tr.record(span{ID: id, Op: id, Layer: "op", Name: "op", Start: t0, End: tr.now()})
	}
	if res.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: op %d/%d failed: %v\n", client, seq, res.err)
	}
	return opRecord{
		ms:          float64(d.Nanoseconds()) / 1e6,
		firstCellMS: float64(res.firstCell.Nanoseconds()) / 1e6,
		cells:       res.cells,
		traced:      traced,
		failed:      res.err != nil,
	}
}

func endToEndMetrics(ops []opRecord, elapsed time.Duration, setupS, rssMiB float64, rt rtSample) map[string]float64 {
	var ms []float64
	cells := 0
	for _, o := range ops {
		ms = append(ms, o.ms)
		cells += o.cells
	}
	n := float64(len(ops))
	secs := elapsed.Seconds()
	return map[string]float64{
		"setup_s":         setupS,
		"op_p50_ms":       quantile(ms, 0.5),
		"op_p90_ms":       quantile(ms, 0.9),
		"ops_per_s":       n / secs,
		"cells_per_s":     float64(cells) / secs,
		"alloc_kb_per_op": rt.allocBytes / 1024 / n,
		"peak_rss_mb":     rssMiB,
	}
}

// writeFirstCell prints, outside the result line, the time from a
// daemon job's POST to its first streamed cell; on the sweeps, whose
// ops report none, it prints nothing.
func writeFirstCell(w io.Writer, ops []opRecord) {
	var first []float64
	for _, o := range ops {
		if o.firstCellMS > 0 {
			first = append(first, o.firstCellMS)
		}
	}
	if len(first) == 0 {
		return
	}
	fmt.Fprintf(w, "%-32s %16.6f %s\n", "first_cell_p50_ms", quantile(first, 0.5), "ms")
	fmt.Fprintf(w, "%-32s %16.6f %s\n", "first_cell_p90_ms", quantile(first, 0.9), "ms")
}

// layerMetrics turns what the tracer recorded, plus a replay probe of
// the simulated cells, into the per-layer metrics. A layer the
// workload never reaches reports 0.
func layerMetrics(tr *tracer, ops []opRecord, rt rtSample) (map[string]float64, error) {
	var tracedMS, plainMS []float64
	for _, o := range ops {
		if o.traced {
			tracedMS = append(tracedMS, o.ms)
		} else {
			plainMS = append(plainMS, o.ms)
		}
	}
	if len(tracedMS) == 0 {
		return nil, errors.New("the window was too short for a traced op")
	}
	nTraced := float64(len(tracedMS))
	var tracedTotalMS float64
	for _, v := range tracedMS {
		tracedTotalMS += v
	}

	tr.mu.Lock()
	samples, counts := tr.samples, tr.counts
	keys := append([]runner.Key(nil), tr.keyList...)
	spans := append([]span(nil), tr.spans...)
	var aplMax []float64
	for _, v := range tr.aplMax {
		aplMax = append(aplMax, v)
	}
	tr.mu.Unlock()

	perOp := func(name string) float64 { return counts[name] / nTraced }
	vals := map[string]float64{}
	for _, b := range tplBenches {
		vals["bench.cell_ms_p50."+b] = median(samples["cell_ms."+b])
	}
	for _, a := range aplApps {
		vals["apps.cell_ms_p50."+a] = median(samples["cell_ms.apl/"+a])
	}
	vals["bench.cell_ms_max.apl"] = median(aplMax)

	pt, err := probe(keys)
	if err != nil {
		return nil, fmt.Errorf("sim probe: %w", err)
	}
	simsPerOp := perOp("sim.cells")
	perCell := func(total float64) float64 { return ratio(total, float64(pt.cells)) * simsPerOp }
	vals["sim.events_per_op"] = perCell(pt.events)
	vals["sim.ns_per_event"] = ratio(pt.hostNS, pt.events)
	vals["simnet.chunks_per_op"] = perCell(pt.chunks)
	vals["simnet.bytes_per_op"] = perCell(pt.bytes)
	vals["simnet.loop_bytes_per_op"] = perCell(pt.loopB)
	vals["simnet.conflicts_per_op"] = perCell(pt.conflicts)
	vals["mpt.alloc_b_per_payload_b"] = ratio(pt.allocBytes, pt.bytes+pt.loopB)

	hits, misses := counts["runner.hits"], counts["runner.misses"]
	vals["runner.hits_per_op"] = hits / nTraced
	vals["runner.misses_per_op"] = misses / nTraced
	vals["runner.hit_ratio"] = ratio(hits, hits+misses)
	vals["runner.hit_us_p50"] = median(samples["runner.hit_us"])
	vals["runner.memo_self_us_p50"] = median(samples["runner.memo_self_us"])
	vals["runner.queue_wait_ms_p50"] = median(samples["runner.queue_wait_ms"])
	vals["runner.busy_frac"] = ratio(counts["runner.compute_ms"], tracedTotalMS*slots)

	vals["store.open_ms"] = median(samples["store.open_ms"])
	vals["store.lookup_us_p50"] = median(samples["store.lookup_us"])
	vals["store.lookup_us_p90"] = quantile(samples["store.lookup_us"], 0.9)
	vals["store.fill_us_p50"] = median(samples["store.fill_us"])
	vals["store.fill_us_p90"] = quantile(samples["store.fill_us"], 0.9)
	vals["store.lookups_per_op"] = perOp("store.lookups")
	vals["store.disk_hits_per_op"] = perOp("store.disk_hits")
	vals["store.fills_per_op"] = perOp("store.fills")
	vals["store.disk_hit_ratio"] = ratio(counts["store.disk_hits"], counts["store.lookups"])

	vals["server.admit_ms_p50"] = median(samples["server.admit_ms"])
	vals["server.first_cell_ms_p50"] = median(samples["server.first_cell_ms"])
	vals["server.first_cell_ms_p90"] = quantile(samples["server.first_cell_ms"], 0.9)
	vals["server.event_gap_us_p50"] = median(samples["server.event_gap_us"])
	vals["server.events_per_job"] = perOp("server.events")
	vals["server.sse_bytes_per_job"] = perOp("server.sse_bytes")
	vals["server.report_get_ms_p50"] = median(samples["server.report_get_ms"])
	vals["server.refused_per_op"] = perOp("server.refused")

	rpcs := counts["remote.rpcs"]
	vals["remote.rpc_ms_p50"] = median(samples["remote.rpc_ms"])
	vals["remote.rpc_ms_p90"] = quantile(samples["remote.rpc_ms"], 0.9)
	vals["remote.worker_ms_p50"] = median(samples["remote.worker_ms"])
	vals["remote.wire_ms_p50"] = median(wireTimes(spans))
	vals["remote.req_bytes_per_cell"] = ratio(counts["remote.req_bytes"], rpcs)
	vals["remote.resp_bytes_per_cell"] = ratio(counts["remote.resp_bytes"], rpcs)
	vals["remote.retries_per_op"] = perOp("remote.retries")

	vals["core.report_ms"] = median(samples["core.report_ms"])

	vals["runtime.gc_cpu_frac"] = ratio(rt.gcCPU, rt.totalCPU)
	vals["runtime.gc_cycles_per_op"] = ratio(rt.gcCycles, float64(len(ops)))
	vals["trace.overhead_frac"] = ratio(median(tracedMS), median(plainMS))

	self := selfTimes(spans)
	for _, l := range spanLayers {
		vals["trace.self_ms_per_op."+l] = self[l] / nTraced
	}
	return vals, nil
}
