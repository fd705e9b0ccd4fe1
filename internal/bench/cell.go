package bench

import (
	"fmt"
	"strings"
	"time"

	"tooleval/internal/apps"
	"tooleval/internal/mpt"
	"tooleval/internal/mpt/tools"
	"tooleval/internal/platform"
	"tooleval/internal/runner"
)

// This file is the single home of every cell computation: one function
// per benchmark kind, each a pure function of the cell's content-key
// fields, and computeCell, the one dispatcher from a key to them.
// Every memoized cell reaches computeCell from its key alone — local
// sweeps through Harness.cell, remote workers through ComputeCell — so
// a worker daemon handed only the key runs exactly the code the local
// sweep would have run, and local and distributed results are
// byte-identical by construction, not by testing alone.

// pingPong is Table 3's SPMD body: rank 0 sends size bytes to rank 1,
// which echoes them back, and rank 0 returns the round trip in
// milliseconds. TraceRun runs the same body under the engine trace.
func pingPong(size int) mpt.Body {
	payload := testPayload(size)
	return func(c *mpt.Ctx) (any, error) {
		const tag = 1
		if c.Rank() == 0 {
			t0 := c.Now()
			if err := c.Comm.Send(1, tag, payload); err != nil {
				return nil, err
			}
			msg, err := c.Comm.Recv(1, tag)
			if err != nil {
				return nil, err
			}
			if len(msg.Data) != size {
				return nil, fmt.Errorf("echo returned %d bytes, want %d", len(msg.Data), size)
			}
			return (c.Now() - t0).Milliseconds(), nil
		}
		msg, err := c.Comm.Recv(0, tag)
		if err != nil {
			return nil, err
		}
		return nil, c.Comm.Send(0, tag, msg.Data)
	}
}

// computePingPong is Table 3's cell: the round-trip send/receive time
// for one message size, in milliseconds.
func computePingPong(pf platform.Platform, toolName string, factory mpt.Factory, size int) (runner.CellResult, error) {
	res, err := mpt.Run(pf, factory, mpt.RunConfig{Procs: 2}, pingPong(size))
	if err != nil {
		return runner.CellResult{}, fmt.Errorf("ping-pong %s/%s size %d: %w", pf.Key, toolName, size, err)
	}
	ms, ok := res.Value.(float64)
	if !ok {
		return runner.CellResult{}, fmt.Errorf("ping-pong %s/%s: no timing value", pf.Key, toolName)
	}
	return runner.CellResult{Value: ms, Virtual: res.Elapsed}, nil
}

// computeBroadcast is Figure 2's cell: rank 0's data reaching all
// procs ranks, timed until the slowest rank holds it.
func computeBroadcast(pf platform.Platform, toolName string, factory mpt.Factory, procs, size int) (runner.CellResult, error) {
	payload := testPayload(size)
	res, err := mpt.Run(pf, factory, mpt.RunConfig{Procs: procs}, func(c *mpt.Ctx) (any, error) {
		var in []byte
		if c.Rank() == 0 {
			in = payload
		}
		got, err := c.Comm.Bcast(0, 2, in)
		if err != nil {
			return nil, err
		}
		if len(got) != size {
			return nil, fmt.Errorf("bcast delivered %d bytes, want %d", len(got), size)
		}
		return nil, nil
	})
	if err != nil {
		return runner.CellResult{}, fmt.Errorf("broadcast %s/%s size %d: %w", pf.Key, toolName, size, err)
	}
	return runner.CellResult{Value: float64(res.Elapsed) / float64(time.Millisecond), Virtual: res.Elapsed}, nil
}

// computeRing is Figure 3's cell: every rank passes size bytes to its
// successor and receives from its predecessor, timed until the slowest
// rank holds its incoming message.
func computeRing(pf platform.Platform, toolName string, factory mpt.Factory, procs, size int) (runner.CellResult, error) {
	payload := testPayload(size)
	res, err := mpt.Run(pf, factory, mpt.RunConfig{Procs: procs}, func(c *mpt.Ctx) (any, error) {
		const tag = 3
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() + c.Size() - 1) % c.Size()
		if err := c.Comm.Send(next, tag, payload); err != nil {
			return nil, err
		}
		msg, err := c.Comm.Recv(prev, tag)
		if err != nil {
			return nil, err
		}
		if len(msg.Data) != size {
			return nil, fmt.Errorf("ring returned %d bytes, want %d", len(msg.Data), size)
		}
		return nil, nil
	})
	if err != nil {
		return runner.CellResult{}, fmt.Errorf("ring %s/%s size %d: %w", pf.Key, toolName, size, err)
	}
	return runner.CellResult{Value: float64(res.Elapsed) / float64(time.Millisecond), Virtual: res.Elapsed}, nil
}

// computeGlobalSum is Figure 4's cell: the element-wise global sum of
// an n-element integer vector across procs ranks.
func computeGlobalSum(pf platform.Platform, toolName string, factory mpt.Factory, procs, n int) (runner.CellResult, error) {
	res, err := mpt.Run(pf, factory, mpt.RunConfig{Procs: procs}, func(c *mpt.Ctx) (any, error) {
		vec := make([]int64, n)
		me := c.Rank()
		for i := range vec {
			vec[i] = int64(me + i)
		}
		sum, err := c.Comm.GlobalSumInt64(vec)
		if err != nil {
			return nil, err
		}
		if len(sum) != n {
			return nil, fmt.Errorf("global sum returned %d elements, want %d", len(sum), n)
		}
		// Σ_r (r+i) over p ranks is p·i + p(p-1)/2.
		p := int64(c.Size())
		for i, got := range sum {
			if want := p*int64(i) + p*(p-1)/2; got != want {
				return nil, fmt.Errorf("global sum element %d is %d, want %d", i, got, want)
			}
		}
		return nil, nil
	})
	if err != nil {
		return runner.CellResult{}, fmt.Errorf("global sum %s/%s n=%d: %w", pf.Key, toolName, n, err)
	}
	return runner.CellResult{Value: float64(res.Elapsed) / float64(time.Millisecond), Virtual: res.Elapsed}, nil
}

// computeApp is one APL sweep point: the application's execution time
// at one processor count, verified against the sequential reference.
func computeApp(pf platform.Platform, toolName string, factory mpt.Factory, appName string, app apps.App, procs int, scale float64) (runner.CellResult, error) {
	res, err := mpt.Run(pf, factory, mpt.RunConfig{Procs: procs}, func(c *mpt.Ctx) (any, error) {
		return app.Run(c, scale)
	})
	if err != nil {
		return runner.CellResult{}, fmt.Errorf("bench: %s/%s/%s procs=%d: %w", pf.Key, toolName, appName, procs, err)
	}
	if err := app.Verify(res.Value, procs, scale); err != nil {
		return runner.CellResult{}, fmt.Errorf("bench: %s/%s/%s procs=%d verification: %w", pf.Key, toolName, appName, procs, err)
	}
	secs := res.Elapsed.Seconds()
	// Applications that time an inner phase (the FFT excludes its
	// verification-only scatter/gather) report it themselves.
	if t, ok := res.Value.(interface{ InnerSeconds() (float64, bool) }); ok {
		if inner, valid := t.InnerSeconds(); valid {
			secs = inner
		}
	}
	return runner.CellResult{Value: secs, Virtual: res.Elapsed}, nil
}

// APLBenchPrefix prefixes the Bench field of every APL cell key; the
// rest of the field is the application name.
const APLBenchPrefix = "apl/"

// ComputeCell recomputes one evaluation cell from its content key
// alone, resolving the tool from the built-in catalog. A custom WithTool
// factory exists in one session's registry and cannot be reconstructed
// from a name, so keys naming one are an error here; the harness
// computes those cells in its own process instead.
//
// A cell is a pure function of its key, so ComputeCell is the whole
// location-transparency contract of the remote workers: any process
// with the same engine version computes the same bytes.
func ComputeCell(key runner.Key) (runner.CellResult, error) {
	factory, err := tools.Factory(key.Tool)
	if err != nil {
		return runner.CellResult{}, err
	}
	return computeCell(key, factory)
}

// computeCell computes the cell key names with the tool's resolved
// factory, dispatching on the Bench field to the per-kind functions
// above — their only caller.
func computeCell(key runner.Key, factory mpt.Factory) (runner.CellResult, error) {
	pf, err := platform.Get(key.Platform)
	if err != nil {
		return runner.CellResult{}, err
	}
	switch {
	case key.Bench == "pingpong":
		return computePingPong(pf, key.Tool, factory, key.Size)
	case key.Bench == "broadcast":
		return computeBroadcast(pf, key.Tool, factory, key.Procs, key.Size)
	case key.Bench == "ring":
		return computeRing(pf, key.Tool, factory, key.Procs, key.Size)
	case key.Bench == "globalsum":
		return computeGlobalSum(pf, key.Tool, factory, key.Procs, key.Size)
	case strings.HasPrefix(key.Bench, APLBenchPrefix):
		appName := strings.TrimPrefix(key.Bench, APLBenchPrefix)
		app, err := apps.Get(appName)
		if err != nil {
			return runner.CellResult{}, err
		}
		return computeApp(pf, key.Tool, factory, appName, app, key.Procs, key.Scale)
	default:
		return runner.CellResult{}, fmt.Errorf("bench: unknown benchmark %q in cell key %s", key.Bench, key)
	}
}
