package tooleval_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"tooleval"
	"tooleval/internal/bench"
	"tooleval/internal/remote"
	"tooleval/internal/runner"
)

// startBenchWorker spins up a real worker daemon surface — the same
// handler cmd/toolbench-worker serves — computing genuine simulation
// cells through bench.ComputeCell.
func startBenchWorker(t *testing.T, opts ...remote.WorkerOption) *httptest.Server {
	t.Helper()
	w := remote.NewWorker(runner.New(4), bench.ComputeCell, opts...)
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestRemoteSessionMatchesLocal is the session-level location
// transparency check: the same figure swept locally and through
// WithRemoteExecutor over live workers produces identical numbers, and
// the per-node counters account for every computed cell.
func TestRemoteSessionMatchesLocal(t *testing.T) {
	ctx := context.Background()
	local := tooleval.NewSession(tooleval.WithParallelism(2))
	want, err := local.Fig2(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := startBenchWorker(t), startBenchWorker(t)
	rem := tooleval.NewSession(
		tooleval.WithParallelism(4),
		tooleval.WithRemoteExecutor(w1.URL, w2.URL),
	)
	got, err := rem.Fig2(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("remote Fig2 differs from local:\nlocal:  %+v\nremote: %+v", want, got)
	}

	stats := rem.NodeStats()
	if len(stats) != 2 {
		t.Fatalf("NodeStats() = %d nodes, want 2", len(stats))
	}
	var completed int64
	for _, ns := range stats {
		if ns.State != "ok" {
			t.Fatalf("node %s state %q, want ok", ns.Node, ns.State)
		}
		completed += ns.Completed
	}
	_, misses := rem.Stats()
	if completed != misses {
		t.Fatalf("nodes completed %d RPCs, cache recorded %d misses — every miss should be exactly one RPC", completed, misses)
	}
	if local.NodeStats() != nil {
		t.Fatal("local session reports NodeStats, want nil")
	}
}

// TestRemoteSessionVersionMismatch: a session sweeping against a
// version-skewed worker fails with the typed refusal.
func TestRemoteSessionVersionMismatch(t *testing.T) {
	skewed := startBenchWorker(t, remote.WithWorkerEngine(999))
	sess := tooleval.NewSession(tooleval.WithRemoteExecutor(skewed.URL))
	_, err := sess.Fig2(context.Background(), 16)
	var ve *tooleval.RemoteVersionError
	if !errors.As(err, &ve) {
		t.Fatalf("Fig2 against skewed worker = %v, want *RemoteVersionError", err)
	}
	if ve.WorkerEngine != 999 {
		t.Fatalf("VersionError = %+v", ve)
	}
}

// toolRecorder fronts a worker handler and records the tool named by
// every cell RPC it forwards.
type toolRecorder struct {
	next  http.Handler
	mu    sync.Mutex
	tools []string
}

func (rec *toolRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == remote.CellsPath {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req remote.CellRequest
		if err := json.Unmarshal(body, &req); err == nil {
			rec.mu.Lock()
			rec.tools = append(rec.tools, req.Tool)
			rec.mu.Unlock()
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	rec.next.ServeHTTP(w, r)
}

// TestWithToolComposesWithRemoteExecutor: a custom tool and remote
// workers compose in one session. Built-in-tool cells compute on the
// workers; custom-tool cells compute on the coordinator, because the
// custom factory exists only in its registry. The results equal a
// local session's.
func TestWithToolComposesWithRemoteExecutor(t *testing.T) {
	ctx := context.Background()
	specs := []tooleval.ExperimentSpec{
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0, 1 << 10}},
		{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "mine", Sizes: []int{0, 4 << 10, 16 << 10}},
	}
	local := tooleval.NewSession(tooleval.WithTool("mine", mpiLite))
	want, err := local.Submit(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}

	var recs []*toolRecorder
	var nodes []string
	for i := 0; i < 2; i++ {
		rec := &toolRecorder{next: remote.NewWorker(runner.New(2), bench.ComputeCell).Handler()}
		ts := httptest.NewServer(rec)
		t.Cleanup(ts.Close)
		recs = append(recs, rec)
		nodes = append(nodes, ts.URL)
	}
	rem := tooleval.NewSession(
		tooleval.WithParallelism(4),
		tooleval.WithTool("mine", mpiLite),
		tooleval.WithRemoteExecutor(nodes...),
	)
	got, err := rem.Submit(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("remote session with a custom tool differs from local:\nlocal:  %+v\nremote: %+v", want, got)
	}

	builtinMisses := int64(len(specs[0].Sizes))
	if _, misses := rem.Stats(); misses != builtinMisses+int64(len(specs[1].Sizes)) {
		t.Fatalf("session recorded %d misses, want %d", misses, builtinMisses+int64(len(specs[1].Sizes)))
	}
	var completed int64
	for _, ns := range rem.NodeStats() {
		completed += ns.Completed
	}
	if completed != builtinMisses {
		t.Fatalf("workers completed %d RPCs, want %d (the built-in misses only)", completed, builtinMisses)
	}
	for _, rec := range recs {
		for _, tool := range rec.tools {
			if tool != "p4" {
				t.Fatalf("a worker received a cell RPC for tool %q; only built-in cells may leave the coordinator", tool)
			}
		}
	}
}

// NewSession refuses a remote address list it cannot dial.
func TestWithRemoteExecutorConflicts(t *testing.T) {
	cases := []struct {
		name string
		opts []tooleval.Option
	}{
		{"blank node", []tooleval.Option{
			tooleval.WithRemoteExecutor(""),
		}},
		{"duplicate node", []tooleval.Option{
			tooleval.WithRemoteExecutor("localhost:1", "localhost:1"),
		}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewSession(%s) did not panic", tt.name)
				}
			}()
			tooleval.NewSession(tt.opts...)
		})
	}
}

// countingExecutor is a caller-built local executor: the built-in pool
// underneath, plus a record of every cell key its Memo resolves.
type countingExecutor struct {
	runner.Executor
	mu   sync.Mutex
	seen map[tooleval.Cell]int
}

func newCountingExecutor(workers int) *countingExecutor {
	return &countingExecutor{Executor: runner.New(workers), seen: map[tooleval.Cell]int{}}
}

func (c *countingExecutor) Memo(ctx context.Context, key tooleval.Cell, compute func() (tooleval.CellResult, error)) (float64, error) {
	c.mu.Lock()
	c.seen[key]++
	c.mu.Unlock()
	return c.Executor.Memo(ctx, key, compute)
}

// TestWithExecutorComposesWithRemoteExecutor: the remote compute step
// works through a caller-built executor exactly as through the built-in
// pool. The caller's executor keeps memoization — its Memo resolves
// every cell of the sweep — while the cells themselves are computed on
// the workers, and the output matches a serial local session.
func TestWithExecutorComposesWithRemoteExecutor(t *testing.T) {
	ctx := context.Background()
	var mu sync.Mutex
	serialCells := map[tooleval.Cell]bool{}
	serial := tooleval.NewSession(tooleval.WithParallelism(1))
	want, err := serial.Fig2(tooleval.EventContext(ctx, func(e tooleval.Event) {
		if ev, ok := e.(tooleval.CellEvent); ok {
			mu.Lock()
			serialCells[ev.Cell] = true
			mu.Unlock()
		}
	}), 4)
	if err != nil {
		t.Fatal(err)
	}

	x := newCountingExecutor(4)
	w1, w2 := startBenchWorker(t), startBenchWorker(t)
	rem := tooleval.NewSession(tooleval.WithExecutor(x), tooleval.WithRemoteExecutor(w1.URL, w2.URL))
	got, err := rem.Fig2(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() || got.DatFile() != want.DatFile() {
		t.Fatalf("remote over a custom executor differs from serial:\nserial:\n%s\nremote:\n%s", want.Render(), got.Render())
	}

	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.seen) != len(serialCells) {
		t.Fatalf("custom executor's Memo saw %d distinct cells, the serial sweep resolved %d", len(x.seen), len(serialCells))
	}
	for cell := range serialCells {
		if x.seen[cell] == 0 {
			t.Fatalf("custom executor's Memo never saw cell %v", cell)
		}
	}
	if rem.Cache() != x.Cache() {
		t.Fatal("session does not memoize into the custom executor's cache")
	}
	var completed int64
	for _, ns := range rem.NodeStats() {
		completed += ns.Completed
	}
	if _, misses := rem.Stats(); misses == 0 || completed != misses {
		t.Fatalf("workers completed %d RPCs for %d misses — every miss should be computed remotely", completed, misses)
	}
}
