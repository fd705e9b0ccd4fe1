package tooleval_test

import (
	"net/http/httptest"
	"testing"

	"tooleval"
	"tooleval/internal/bench"
	"tooleval/internal/remote"
	"tooleval/internal/runner"
)

// BenchmarkRemoteSweep measures the distributed backend end to end:
// the broadcast figure swept through two in-process worker daemons
// over real HTTP loopback. Iteration 1 pays one RPC per cell (the
// wire protocol plus the simulation); later iterations replay the
// coordinator's memoization cache, so -benchtime=1x measures the
// distributed path and longer runs measure the coordinator-side cache
// under the remote wrapper.
func BenchmarkRemoteSweep(b *testing.B) {
	w1 := httptest.NewServer(remote.NewWorker(runner.New(4), bench.ComputeCell).Handler())
	defer w1.Close()
	w2 := httptest.NewServer(remote.NewWorker(runner.New(4), bench.ComputeCell).Handler())
	defer w2.Close()
	sess := tooleval.NewSession(
		tooleval.WithParallelism(8),
		tooleval.WithRemoteExecutor(w1.URL, w2.URL),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Fig2(benchCtx, 4); err != nil {
			b.Fatal(err)
		}
	}
	var rpcs, nodes int64
	for _, ns := range sess.NodeStats() {
		rpcs += ns.Completed
		nodes++
	}
	b.ReportMetric(float64(rpcs), "cell-rpcs")
	b.ReportMetric(float64(nodes), "workers")
}
