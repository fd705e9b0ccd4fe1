package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tooleval"
	"tooleval/internal/bench"
	"tooleval/internal/remote"
	"tooleval/internal/runner"
	"tooleval/perfbench/tplpass"
)

// tplOrder is the seed's order of the experiments a TPL pass runs
// before Table 4. Every order simulates the same cells.
func tplOrder(seed int64) []string {
	order := append([]string(nil), tplpass.Figures...)
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// serialReference is the TPL pass's output hash from a serial
// (parallelism 1) session, the reference every timed pass must match.
func serialReference(ctx context.Context) ([32]byte, error) {
	return tplpass.Run(ctx, tooleval.NewSession(tooleval.WithParallelism(1)), tplpass.Figures)
}

// tplFixture runs one TPL pass per op in a fresh session — locally for
// tpl-cold, over two loopback workers for remote-tpl.
type tplFixture struct {
	order   []string
	ref     [32]byte
	workers *workerPool // nil for tpl-cold
}

func setupTPLCold(ctx context.Context, cfg config, _ *tracer) (fixture, error) {
	ref, err := serialReference(ctx)
	if err != nil {
		return nil, err
	}
	return &tplFixture{order: tplOrder(cfg.seed), ref: ref}, nil
}

func setupRemoteTPL(ctx context.Context, cfg config, tr *tracer) (fixture, error) {
	ref, err := serialReference(ctx)
	if err != nil {
		return nil, err
	}
	pool, err := startWorkers(slots, tr)
	if err != nil {
		return nil, err
	}
	return &tplFixture{order: tplOrder(cfg.seed), ref: ref, workers: pool}, nil
}

func (f *tplFixture) op(ctx context.Context, _, _ int, tr *tracer) opResult {
	var opts []tooleval.Option
	switch {
	case f.workers != nil:
		// Cold worker caches every pass, like the coordinator's.
		f.workers.reset()
		opts = append(opts, tooleval.WithParallelism(slots), tooleval.WithRemoteExecutor(f.workers.addrs...))
		if tr != nil {
			http.DefaultClient.Transport = timedTransport{base: http.DefaultTransport, tr: tr}
			defer func() { http.DefaultClient.Transport = nil }()
		}
	case tr != nil:
		opts = append(opts, tooleval.WithExecutor(timedExecutor{Executor: runner.New(slots), tr: tr}))
	default:
		opts = append(opts, tooleval.WithParallelism(slots))
	}
	sess := tooleval.NewSession(opts...)
	sum, err := tplpass.Run(ctx, sess, f.order)
	hits, misses := sess.Stats()
	res := opResult{cells: int(hits + misses), err: err}
	if err == nil && sum != f.ref {
		res.err = errors.New("TPL pass output differs from the serial reference")
	}
	if tr != nil && f.workers != nil {
		// The decorated executor counts its own hits and misses; the
		// remote session's come from its public counters.
		tr.add("runner.hits", float64(hits))
		tr.add("runner.misses", float64(misses))
		for _, n := range sess.NodeStats() {
			tr.add("remote.retries", float64(n.Retried))
		}
	}
	return res
}

func (f *tplFixture) check(context.Context) (int, error) { return 0, nil }

func (f *tplFixture) close() error {
	if f.workers != nil {
		return f.workers.close()
	}
	return nil
}

// workerPool is a set of in-process remote workers, each an HTTP
// server on a loopback port with one simulation slot. reset swaps in
// fresh workers with cold caches behind the same addresses.
type workerPool struct {
	addrs    []string
	current  []atomic.Pointer[http.Handler]
	servers  []*http.Server
	serving  sync.WaitGroup
	tr       *tracer
	serveErr chan error
}

func startWorkers(n int, tr *tracer) (*workerPool, error) {
	p := &workerPool{current: make([]atomic.Pointer[http.Handler], n), tr: tr, serveErr: make(chan error, n)}
	p.reset()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			p.close()
			return nil, err
		}
		var h http.Handler = p.handler(i)
		if tr != nil {
			h = tr.timedWorker(h)
		}
		srv := &http.Server{Handler: h}
		p.addrs = append(p.addrs, ln.Addr().String())
		p.servers = append(p.servers, srv)
		p.serving.Add(1)
		go func() {
			defer p.serving.Done()
			if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				p.serveErr <- err
			}
		}()
	}
	return p, nil
}

// handler routes to whichever worker is current for slot i.
func (p *workerPool) handler(i int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*p.current[i].Load()).ServeHTTP(w, r)
	})
}

func (p *workerPool) reset() {
	for i := range p.current {
		var h http.Handler = remote.NewWorker(runner.New(1), p.compute).Handler()
		p.current[i].Store(&h)
	}
}

// compute is the workers' cell function; in a traced op it times each
// simulated cell.
func (p *workerPool) compute(key runner.Key) (runner.CellResult, error) {
	if p.tr == nil || !p.tr.active.Load() {
		return bench.ComputeCell(key)
	}
	start := time.Now()
	res, err := bench.ComputeCell(key)
	p.tr.cell(0, key, float64(time.Since(start).Nanoseconds())/1e6)
	return res, err
}

func (p *workerPool) close() error {
	for _, srv := range p.servers {
		srv.Close()
	}
	p.serving.Wait()
	select {
	case err := <-p.serveErr:
		return fmt.Errorf("remote worker: %w", err)
	default:
		return nil
	}
}
