// Package bench is the benchmark harness that regenerates every table and
// figure of the paper's evaluation section: the Tool Performance Level
// micro-benchmarks (send/receive, broadcast, ring, global sum — Table 3,
// Figures 2-4), the Application Performance Level sweeps (Figures 5-8),
// and the derived rankings (Table 4).
//
// Every measured point is one independent virtual-time simulation (one
// mpt.Run), so the Harness routes each through its internal/runner
// scheduler: points fan out across a bounded worker pool and are
// memoized by content key, while result assembly stays in input order so
// the emitted tables and figures are bit-identical to a serial sweep.
package bench

import (
	"context"

	"tooleval/internal/runner"
)

// StandardSizes are the message sizes of Table 3 and Figures 2-3, in
// bytes: 0 through 64 Kbytes.
func StandardSizes() []int {
	return []int{0, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
}

// VectorSizes are the global-sum vector lengths of Figure 4 (number of
// integers, 0..100K). The paper's axis counts 4-byte integers; the cell
// sums int64s and puts 8 bytes per element on the simulated wire.
func VectorSizes() []int {
	return []int{1000, 10_000, 25_000, 50_000, 75_000, 100_000}
}

// Point is one (x, y) sample of a figure series.
type Point struct {
	X float64 // message size in KB, vector length, or processor count
	Y float64 // milliseconds (TPL) or seconds (APL)
}

// Series is one tool's curve on one figure.
type Series struct {
	Tool     string
	Platform string
	Points   []Point
}

// PingPong measures the round-trip send/receive time (Table 3's
// benchmark) on the platform keyed pfKey: rank 0 sends size bytes to
// rank 1 and waits for the echo. The result is the round-trip time in
// milliseconds for each size.
func (h *Harness) PingPong(ctx context.Context, pfKey, toolName string, sizes []int) ([]float64, error) {
	return h.sweep(ctx, pfKey, toolName, "pingpong", 2, sizes)
}

// Broadcast measures the collective broadcast of Figure 2: rank 0's data
// reaching all procs ranks. The reported time is until the slowest rank
// holds the data.
func (h *Harness) Broadcast(ctx context.Context, pfKey, toolName string, procs int, sizes []int) ([]float64, error) {
	return h.sweep(ctx, pfKey, toolName, "broadcast", procs, sizes)
}

// Ring measures the loop benchmark of Figure 3 ("all nodes send and
// receive", §1): every rank simultaneously passes a size-byte message to
// its successor and receives one from its predecessor. The reported time
// is until the slowest rank holds its incoming message — continuous
// bidirectional flow, which is where the paper observes Express
// overtaking PVM despite losing the isolated send/receive race.
func (h *Harness) Ring(ctx context.Context, pfKey, toolName string, procs int, sizes []int) ([]float64, error) {
	return h.sweep(ctx, pfKey, toolName, "ring", procs, sizes)
}

// GlobalSum measures Figure 4's benchmark: the element-wise global sum of
// an integer vector across procs ranks (p4_global_op / excombine; PVM
// reports mpt.ErrNotSupported as in Table 1).
func (h *Harness) GlobalSum(ctx context.Context, pfKey, toolName string, procs int, vectorLens []int) ([]float64, error) {
	return h.sweep(ctx, pfKey, toolName, "globalsum", procs, vectorLens)
}

// sweep resolves one TPL cell per size, in input order. An unknown
// platform, or a tool not ported to it, fails up front, before any cell
// is scheduled or memoized.
func (h *Harness) sweep(ctx context.Context, pfKey, toolName, benchName string, procs int, sizes []int) ([]float64, error) {
	if _, err := h.RequirePort(pfKey, toolName); err != nil {
		return nil, err
	}
	return runner.Collect(ctx, h.x, sizes, func(size int) (float64, error) {
		return h.cell(ctx, runner.Key{Platform: pfKey, Tool: toolName, Bench: benchName, Procs: procs, Size: size})
	})
}

// testPayload builds a deterministic payload of the given size.
func testPayload(size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i*131 + 7)
	}
	return b
}
