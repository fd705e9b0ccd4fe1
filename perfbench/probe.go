package main

import (
	"fmt"
	"strings"
	"time"

	"tooleval/internal/apps"
	"tooleval/internal/mpt"
	"tooleval/internal/mpt/tools"
	"tooleval/internal/platform"
	"tooleval/internal/runner"
	"tooleval/internal/sim"
)

// probeTotals is what replaying a set of cells through mpt.Run counts.
type probeTotals struct {
	cells                int
	events               float64 // engine trace events, traced replay
	hostNS               float64 // host time of the untraced replay
	allocBytes           float64 // heap bytes the untraced replay allocated
	chunks, bytes, loopB float64 // simnet fabric and loopback traffic
	conflicts            float64
}

// maxProbeCells bounds how many of the traced ops' simulated cells the
// probe replays; per-op figures are scaled from the replayed share.
const maxProbeCells = 600

// probe replays cells through mpt.Run twice: once with an engine trace
// hook counting events, once without it for host time and allocation.
// The bodies mirror the benchmark kinds of internal/bench, so the
// replay does the work the sweep did, outside any scheduler.
func probe(keys []runner.Key) (probeTotals, error) {
	if len(keys) > maxProbeCells {
		keys = keys[:maxProbeCells]
	}
	var pt probeTotals
	for _, key := range keys {
		var events int64
		count := func(sim.TraceEvent) { events++ }
		if _, err := replay(key, count); err != nil {
			return pt, err
		}
		before := readRuntime()
		start := time.Now()
		res, err := replay(key, nil)
		host := time.Since(start)
		after := readRuntime()
		if err != nil {
			return pt, err
		}
		pt.cells++
		pt.events += float64(events)
		pt.hostNS += float64(host.Nanoseconds())
		pt.allocBytes += after.allocBytes - before.allocBytes
		pt.chunks += float64(res.NetStats.Chunks)
		pt.bytes += float64(res.NetStats.Bytes)
		pt.loopB += float64(res.LoopStats.Bytes)
		pt.conflicts += float64(res.NetStats.Conflicts + res.LoopStats.Conflicts)
	}
	return pt, nil
}

// replay runs one cell's program under mpt.Run.
func replay(key runner.Key, trace sim.TraceFunc) (*mpt.RunResult, error) {
	pf, err := platform.Get(key.Platform)
	if err != nil {
		return nil, err
	}
	factory, err := tools.Factory(key.Tool)
	if err != nil {
		return nil, err
	}
	cfg := mpt.RunConfig{Procs: key.Procs, Trace: trace}
	payload := make([]byte, key.Size)
	for i := range payload {
		payload[i] = byte(i*131 + 7)
	}
	var body mpt.Body
	switch {
	case key.Bench == "pingpong":
		body = func(c *mpt.Ctx) (any, error) {
			if c.Rank() == 0 {
				if err := c.Comm.Send(1, 1, payload); err != nil {
					return nil, err
				}
				_, err := c.Comm.Recv(1, 1)
				return nil, err
			}
			msg, err := c.Comm.Recv(0, 1)
			if err != nil {
				return nil, err
			}
			return nil, c.Comm.Send(0, 1, msg.Data)
		}
	case key.Bench == "broadcast":
		body = func(c *mpt.Ctx) (any, error) {
			var in []byte
			if c.Rank() == 0 {
				in = payload
			}
			_, err := c.Comm.Bcast(0, 2, in)
			return nil, err
		}
	case key.Bench == "ring":
		body = func(c *mpt.Ctx) (any, error) {
			if err := c.Comm.Send((c.Rank()+1)%c.Size(), 3, payload); err != nil {
				return nil, err
			}
			_, err := c.Comm.Recv((c.Rank()+c.Size()-1)%c.Size(), 3)
			return nil, err
		}
	case key.Bench == "globalsum":
		body = func(c *mpt.Ctx) (any, error) {
			vec := make([]int64, key.Size)
			for i := range vec {
				vec[i] = int64(c.Rank() + i)
			}
			_, err := c.Comm.GlobalSumInt64(vec)
			return nil, err
		}
	case strings.HasPrefix(key.Bench, "apl/"):
		app, err := apps.Get(strings.TrimPrefix(key.Bench, "apl/"))
		if err != nil {
			return nil, err
		}
		body = func(c *mpt.Ctx) (any, error) { return app.Run(c, key.Scale) }
	default:
		return nil, fmt.Errorf("probe: unknown benchmark %q", key.Bench)
	}
	return mpt.Run(pf, factory, cfg, body)
}
