package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tooleval/internal/runner"
)

// The traced run wraps the public seams of each layer from the outside:
// a runner.Executor decorator, a runner.Tier decorator, an
// http.RoundTripper on the remote executor's client, a handler wrapper
// on the remote workers, and client-side timing of the daemon's HTTP
// API. Every wrapper records spans and named samples into one tracer;
// nothing inside the program is instrumented.

// maxSpans bounds the spans kept in memory; later ones are counted as
// dropped, not stored.
const maxSpans = 1 << 19

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer started; Op is the id of the root span
// of the operation that caused it (0 when no operation is known, as
// for store calls made on the daemon's own goroutines).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and per-layer samples in memory until the run
// ends. A nil *tracer is the untraced run.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	// active gates the wrappers that sit on shared state (the daemon's
	// store tier): while false they pass calls through unrecorded.
	active atomic.Bool

	mu      sync.Mutex
	spans   []span
	dropped int64
	samples map[string][]float64 // named latency samples
	counts  map[string]float64   // named totals
	aplMax  map[int64]float64    // slowest APL cell per op, ms
	keys    map[runner.Key]bool  // cells simulated in traced ops
	keyList []runner.Key
}

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now(),
		samples: make(map[string][]float64),
		counts:  make(map[string]float64),
		aplMax:  make(map[int64]float64),
		keys:    make(map[runner.Key]bool),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[name] = append(t.samples[name], v)
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] += v
}

// simulated notes a cell simulated in a traced op, for the sim probe.
func (t *tracer) simulated(key runner.Key) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts["sim.cells"]++
	if !t.keys[key] {
		t.keys[key] = true
		t.keyList = append(t.keyList, key)
	}
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }
func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// spanRef rides a context: the op and the span that caused the calls
// made under it.
type spanRef struct{ op, id int64 }

type spanKey struct{}

func withSpan(ctx context.Context, op, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{op, id})
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

// timedExecutor decorates an Executor: every Memo call is a runner
// span, and the compute it runs (a simulated cell) is a bench or apps
// span beneath it. A Memo that never computes is a hit.
type timedExecutor struct {
	runner.Executor
	tr *tracer
}

func (x timedExecutor) Memo(ctx context.Context, key runner.Key, compute func() (runner.CellResult, error)) (float64, error) {
	ref, _ := spanFrom(ctx)
	id := x.tr.newID()
	start := x.tr.now()
	var cStart, cEnd int64
	val, err := x.Executor.Memo(ctx, key, func() (runner.CellResult, error) {
		cStart = x.tr.now()
		res, err := compute()
		cEnd = x.tr.now()
		return res, err
	})
	end := x.tr.now()
	x.tr.record(span{ID: id, Parent: ref.id, Op: ref.op, Layer: "runner", Name: key.Bench, Start: start, End: end})
	if cEnd == 0 {
		x.tr.add("runner.hits", 1)
		x.tr.sample("runner.hit_us", usOf(end-start))
		return val, err
	}
	layer := "bench"
	if strings.HasPrefix(key.Bench, "apl/") {
		layer = "apps"
	}
	x.tr.record(span{ID: x.tr.newID(), Parent: id, Op: ref.op, Layer: layer, Name: key.Bench, Start: cStart, End: cEnd})
	x.tr.add("runner.misses", 1)
	x.tr.add("runner.compute_ms", msOf(cEnd-cStart))
	// Self time of a miss: Memo's own work outside the wait for a slot
	// and the simulation itself (publishing, write-back, observers).
	x.tr.sample("runner.memo_self_us", usOf(end-cEnd))
	x.tr.sample("runner.queue_wait_ms", msOf(cStart-start))
	x.tr.cell(ref.op, key, msOf(cEnd-cStart))
	return val, err
}

// cell records one simulated cell's host time under its kind.
func (t *tracer) cell(op int64, key runner.Key, ms float64) {
	t.sample("cell_ms."+key.Bench, ms)
	t.simulated(key)
	if strings.HasPrefix(key.Bench, "apl/") {
		t.mu.Lock()
		if ms > t.aplMax[op] {
			t.aplMax[op] = ms
		}
		t.mu.Unlock()
	}
}

// timedTier decorates the durable store tier: lookups and fills are
// store spans while the tracer is active.
type timedTier struct {
	runner.Tier
	tr *tracer
}

func (t timedTier) Lookup(key runner.Key) (runner.CellResult, bool) {
	if !t.tr.active.Load() {
		return t.Tier.Lookup(key)
	}
	start := t.tr.now()
	res, ok := t.Tier.Lookup(key)
	end := t.tr.now()
	t.tr.record(span{ID: t.tr.newID(), Layer: "store", Name: "lookup", Start: start, End: end})
	t.tr.sample("store.lookup_us", usOf(end-start))
	t.tr.add("store.lookups", 1)
	if ok {
		t.tr.add("store.disk_hits", 1)
	}
	return res, ok
}

func (t timedTier) Fill(key runner.Key, res runner.CellResult) {
	if !t.tr.active.Load() {
		t.Tier.Fill(key, res)
		return
	}
	start := t.tr.now()
	t.Tier.Fill(key, res)
	end := t.tr.now()
	t.tr.record(span{ID: t.tr.newID(), Layer: "store", Name: "fill", Start: start, End: end})
	t.tr.sample("store.fill_us", usOf(end-start))
	t.tr.add("store.fills", 1)
	t.tr.simulated(key)
}

// spanHeader carries "<op>.<span>" from a traced cell RPC to the
// worker, so the worker's span hangs under the RPC that caused it.
const spanHeader = "X-Perfbench-Span"

// timedTransport times the remote executor's cell RPCs: from sending
// the request until the response body is closed.
type timedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := spanFrom(req.Context())
	if !ok {
		return t.base.RoundTrip(req)
	}
	id := t.tr.newID()
	start := t.tr.now()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, fmt.Sprintf("%d.%d", ref.op, id))
	resp, err := t.base.RoundTrip(req)
	finish := func(respBytes int64) {
		end := t.tr.now()
		t.tr.record(span{ID: id, Parent: ref.id, Op: ref.op, Layer: "remote", Name: "cell", Start: start, End: end})
		t.tr.sample("remote.rpc_ms", msOf(end-start))
		t.tr.add("remote.rpcs", 1)
		t.tr.add("remote.req_bytes", float64(req.ContentLength))
		t.tr.add("remote.resp_bytes", float64(respBytes))
	}
	if err != nil {
		finish(0)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: finish}
	return resp, nil
}

// countingBody counts the bytes read from a response and reports them
// once, on Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// timedWorker wraps a remote worker's handler: a request carrying
// spanHeader becomes a worker span under the RPC span that sent it.
func (t *tracer) timedWorker(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		opStr, idStr, ok := strings.Cut(r.Header.Get(spanHeader), ".")
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseInt(opStr, 10, 64)
		parent, _ := strconv.ParseInt(idStr, 10, 64)
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		t.record(span{ID: t.newID(), Parent: parent, Op: op, Layer: "worker", Name: "cell", Start: start, End: end})
		t.sample("remote.worker_ms", msOf(end-start))
	})
}

// selfTimes sums each layer's self time: a span's duration minus the
// part of it that its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer] += msOf(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// wireTimes is each traced RPC's duration minus the worker span
// beneath it: time on the wire and in the HTTP stacks.
func wireTimes(spans []span) []float64 {
	worker := make(map[int64]int64)
	for _, s := range spans {
		if s.Layer == "worker" {
			worker[s.Parent] = s.End - s.Start
		}
	}
	var out []float64
	for _, s := range spans {
		if w, ok := worker[s.ID]; ok && s.Layer == "remote" {
			out = append(out, msOf(s.End-s.Start-w))
		}
	}
	return out
}

// writeSpans dumps every kept span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans past the first %d were not kept\n", t.dropped, maxSpans)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
