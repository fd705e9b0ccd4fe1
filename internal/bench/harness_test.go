package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"tooleval/internal/runner"
)

// bgCtx and sharedH serve the ordering/calibration/figure tests: one
// package-wide harness gives repeated sweeps across tests the same
// memoization a long-lived session enjoys, exactly like the old
// process-global runner did — but as an explicit object.
var (
	bgCtx   = context.Background()
	sharedH = NewHarness(runner.New(0), nil, nil, Hooks{}, Limits{})
)

// freshHarness builds an isolated harness with an empty cache (the
// determinism tests must not replay another harness's cells).
func freshHarness(workers int) *Harness {
	return NewHarness(runner.New(workers), nil, nil, Hooks{}, Limits{})
}

// cellReport is one call of the Cell hook.
type cellReport struct {
	key    runner.Key
	cached bool
	err    error
}

// recordCells builds a harness over x under lim that computes every
// cell with compute and records each Cell hook call; the returned func
// snapshots the reports in key order, uncached first.
func recordCells(x runner.Executor, lim Limits, compute func(context.Context, runner.Key) (runner.CellResult, error)) (*Harness, func() []cellReport) {
	var mu sync.Mutex
	var got []cellReport
	h := NewHarness(x, nil, compute, Hooks{Cell: func(_ context.Context, key runner.Key, cached bool, err error) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, cellReport{key, cached, err})
	}}, lim)
	return h, func() []cellReport {
		mu.Lock()
		defer mu.Unlock()
		out := append([]cellReport(nil), got...)
		sort.SliceStable(out, func(i, j int) bool {
			if out[i].key.Bench != out[j].key.Bench {
				return out[i].key.Bench < out[j].key.Bench
			}
			return !out[i].cached && out[j].cached
		})
		return out
	}
}

// waitSignalCtx reports the first time Memo asks for its Done channel,
// which a coalesced waiter does exactly when it starts waiting on the
// in-flight entry it found.
type waitSignalCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitSignalCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// storedTier is a read-only second tier holding fixed cells.
type storedTier map[runner.Key]runner.CellResult

func (s storedTier) Lookup(key runner.Key) (runner.CellResult, bool) {
	res, ok := s[key]
	return res, ok
}

func (storedTier) Fill(runner.Key, runner.CellResult) {}

// wrappingExecutor is a caller-built executor that adds its own context
// to every error the executor underneath returns.
type wrappingExecutor struct{ runner.Executor }

func (w wrappingExecutor) Memo(ctx context.Context, key runner.Key, compute func() (runner.CellResult, error)) (float64, error) {
	v, err := w.Executor.Memo(ctx, key, compute)
	if err != nil {
		err = fmt.Errorf("wrapping executor: %w", err)
	}
	return v, err
}

// TestCellHookReportsEachResolution pins when and how Harness.cell
// reports a cell: computed by this call (cached false, with compute's
// error), not computed by this call (cached true), refused by a quota
// (cached false, with the bare *QuotaError), and not at all when the
// call ended with its own context error before computing.
func TestCellHookReportsEachResolution(t *testing.T) {
	a, b := runner.Key{Bench: "a"}, runner.Key{Bench: "b"}
	errBoom := errors.New("boom")
	one := func(context.Context, runner.Key) (runner.CellResult, error) {
		return runner.CellResult{Value: 1, Virtual: time.Millisecond}, nil
	}
	quota := Limits{MaxCells: 1}
	// coalesce resolves a twice at once: the second call waits on the
	// first call's computation, which ends with ownerErr, or, with
	// cancelWaiter, has its own context cancelled while it waits.
	coalesce := func(t *testing.T, ownerErr error, cancelWaiter bool) []cellReport {
		started, release := make(chan struct{}), make(chan struct{})
		h, got := recordCells(runner.New(2), Limits{}, func(ctx context.Context, key runner.Key) (runner.CellResult, error) {
			select {
			case <-started: // the waiter's own compute, after a retraction
			default:
				close(started)
				<-release
				if ownerErr != nil {
					return runner.CellResult{}, ownerErr
				}
			}
			return runner.CellResult{Value: 1}, nil
		})
		owner := make(chan error, 1)
		go func() {
			_, err := h.cell(bgCtx, a)
			owner <- err
		}()
		<-started
		ctx, cancel := context.WithCancel(bgCtx)
		defer cancel()
		waiter := &waitSignalCtx{Context: ctx, waiting: make(chan struct{})}
		go func() {
			<-waiter.waiting
			if cancelWaiter {
				cancel()
			} else {
				close(release)
			}
		}()
		_, err := h.cell(waiter, a)
		if cancelWaiter {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled waiter = %v, want context.Canceled", err)
			}
			close(release)
		}
		<-owner
		return got()
	}
	cases := []struct {
		name string
		run  func(t *testing.T) []cellReport
		want []cellReport
	}{
		{"miss then hit", func(t *testing.T) []cellReport {
			h, got := recordCells(runner.New(1), Limits{}, one)
			for i := 0; i < 2; i++ {
				if _, err := h.cell(bgCtx, a); err != nil {
					t.Fatal(err)
				}
			}
			return got()
		}, []cellReport{{a, false, nil}, {a, true, nil}}},

		{"failed cell then its memoized failure", func(t *testing.T) []cellReport {
			h, got := recordCells(runner.New(1), Limits{}, func(context.Context, runner.Key) (runner.CellResult, error) {
				return runner.CellResult{}, errBoom
			})
			h.cell(bgCtx, a)
			h.cell(bgCtx, a)
			return got()
		}, []cellReport{{a, false, errBoom}, {a, true, errBoom}}},

		{"coalesced wait", func(t *testing.T) []cellReport {
			return coalesce(t, nil, false)
		}, []cellReport{{a, false, nil}, {a, true, nil}}},

		{"waiter outlives the owner cancellation", func(t *testing.T) []cellReport {
			return coalesce(t, context.Canceled, false)
		}, []cellReport{{a, false, context.Canceled}, {a, false, nil}}},

		{"waiter cancelled while coalesced", func(t *testing.T) []cellReport {
			return coalesce(t, nil, true)
		}, []cellReport{{a, false, nil}}},

		{"tier hit", func(t *testing.T) []cellReport {
			c := runner.NewCache()
			c.SetTier(storedTier{a: {Value: 2}})
			h, got := recordCells(runner.New(1, runner.WithCache(c)), Limits{}, func(context.Context, runner.Key) (runner.CellResult, error) {
				t.Error("compute ran for a cell the tier holds")
				return runner.CellResult{}, nil
			})
			if v, err := h.cell(bgCtx, a); err != nil || v != 2 {
				t.Fatalf("cell = %v, %v, want 2 from the tier", v, err)
			}
			return got()
		}, []cellReport{{a, true, nil}}},

		{"quota refusal", func(t *testing.T) []cellReport {
			h, got := recordCells(runner.New(1), quota, one)
			h.cell(bgCtx, a)
			h.cell(bgCtx, b)
			return got()
		}, []cellReport{{a, false, nil}, {b, false, ErrQuotaExceeded}}},

		// The budget refuses before the executor sees the call, so a
		// custom executor's error wrapping never touches the refusal.
		{"quota refusal wrapped by a custom executor", func(t *testing.T) []cellReport {
			h, got := recordCells(wrappingExecutor{runner.New(1)}, quota, one)
			h.cell(bgCtx, a)
			_, err := h.cell(bgCtx, b)
			if qe := (*QuotaError)(nil); !errors.As(err, &qe) || err.Error() != qe.Error() {
				t.Fatalf("refusal = %v, want the bare *QuotaError", err)
			}
			return got()
		}, []cellReport{{a, false, nil}, {b, false, ErrQuotaExceeded}}},

		{"cancelled before compute", func(t *testing.T) []cellReport {
			h, got := recordCells(runner.New(1), quota, one)
			ctx, cancel := context.WithCancel(bgCtx)
			cancel()
			if _, err := h.cell(ctx, a); !errors.Is(err, context.Canceled) {
				t.Fatalf("cell = %v, want context.Canceled", err)
			}
			return got()
		}, nil},

		{"compute aborted by its ctx", func(t *testing.T) []cellReport {
			ctx, cancel := context.WithCancel(bgCtx)
			h, got := recordCells(runner.New(1), Limits{}, func(ctx context.Context, _ runner.Key) (runner.CellResult, error) {
				cancel()
				return runner.CellResult{}, ctx.Err()
			})
			h.cell(ctx, a)
			return got()
		}, []cellReport{{a, false, context.Canceled}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			ok := len(got) == len(tc.want)
			for i := 0; ok && i < len(got); i++ {
				g, w := got[i], tc.want[i]
				ok = g.key == w.key && g.cached == w.cached &&
					(w.err == nil && g.err == nil || w.err != nil && errors.Is(g.err, w.err))
			}
			if !ok {
				t.Fatalf("Cell hook saw %+v, want %+v", got, tc.want)
			}
		})
	}
}
