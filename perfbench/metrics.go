package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"syscall"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's whole vocabulary: an untraced run reports
// every endToEnd metric, a traced run every perLayer metric, and
// BENCHMARK.json must list the same names and units (a test checks).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cells_per_s", "1/s"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// tplBenches and aplApps are the cell kinds the per-kind latency
// metrics break out.
var (
	tplBenches = []string{"pingpong", "broadcast", "ring", "globalsum"}
	aplApps    = []string{"jpeg", "fft2d", "montecarlo", "psrs"}
	// spanLayers are the layers spans are recorded for; each gets a
	// self-time metric.
	spanLayers = []string{"op", "runner", "bench", "apps", "store", "server", "remote", "worker", "core"}
)

var perLayer = func() []metricDef {
	var defs []metricDef
	for _, b := range tplBenches {
		defs = append(defs, metricDef{"bench.cell_ms_p50." + b, "ms"})
	}
	defs = append(defs,
		metricDef{"sim.events_per_op", "count"},
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"simnet.chunks_per_op", "count"},
		metricDef{"simnet.bytes_per_op", "B"},
		metricDef{"simnet.loop_bytes_per_op", "B"},
		metricDef{"simnet.conflicts_per_op", "count"},
		metricDef{"mpt.alloc_b_per_payload_b", "B/B"},
	)
	for _, a := range aplApps {
		defs = append(defs, metricDef{"apps.cell_ms_p50." + a, "ms"})
	}
	defs = append(defs,
		metricDef{"bench.cell_ms_max.apl", "ms"},
		metricDef{"runner.hits_per_op", "count"},
		metricDef{"runner.misses_per_op", "count"},
		metricDef{"runner.hit_ratio", "ratio"},
		metricDef{"runner.hit_us_p50", "us"},
		metricDef{"runner.memo_self_us_p50", "us"},
		metricDef{"runner.queue_wait_ms_p50", "ms"},
		metricDef{"runner.busy_frac", "ratio"},
		metricDef{"store.open_ms", "ms"},
		metricDef{"store.lookup_us_p50", "us"},
		metricDef{"store.lookup_us_p90", "us"},
		metricDef{"store.fill_us_p50", "us"},
		metricDef{"store.fill_us_p90", "us"},
		metricDef{"store.lookups_per_op", "count"},
		metricDef{"store.disk_hits_per_op", "count"},
		metricDef{"store.fills_per_op", "count"},
		metricDef{"store.disk_hit_ratio", "ratio"},
		metricDef{"server.admit_ms_p50", "ms"},
		metricDef{"server.first_cell_ms_p50", "ms"},
		metricDef{"server.first_cell_ms_p90", "ms"},
		metricDef{"server.event_gap_us_p50", "us"},
		metricDef{"server.events_per_job", "count"},
		metricDef{"server.sse_bytes_per_job", "B"},
		metricDef{"server.report_get_ms_p50", "ms"},
		metricDef{"server.refused_per_op", "count"},
		metricDef{"remote.rpc_ms_p50", "ms"},
		metricDef{"remote.rpc_ms_p90", "ms"},
		metricDef{"remote.worker_ms_p50", "ms"},
		metricDef{"remote.wire_ms_p50", "ms"},
		metricDef{"remote.req_bytes_per_cell", "B"},
		metricDef{"remote.resp_bytes_per_cell", "B"},
		metricDef{"remote.retries_per_op", "count"},
		metricDef{"core.report_ms", "ms"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"runtime.gc_cycles_per_op", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
	for _, l := range spanLayers {
		defs = append(defs, metricDef{"trace.self_ms_per_op." + l, "ms"})
	}
	return defs
}()

// quantile returns the q-quantile of xs (0 <= q <= 1), interpolating
// linearly between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rtSample is a snapshot of the Go runtime counters the benchmark
// reports: heap bytes allocated, GC cycles, and GC and total CPU time.
type rtSample struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch v := samples[i].Value; v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: val(0), gcCycles: val(1), gcCPU: val(2), totalCPU: val(3)}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of defs as a table, then the result line
// last. A metric missing from vals is a bug in the workload.
func report(w io.Writer, defs []metricDef, vals map[string]float64, attempted, failed int) error {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "%-32s %16.6f %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(w, "%-32s %16.6f %s\n", "failed_frac", ratio(float64(failed), float64(attempted)), "ratio")
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(blob))
	return err
}
