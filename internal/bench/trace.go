package bench

import (
	"context"
	"fmt"

	"tooleval/internal/mpt"
	"tooleval/internal/sim"
)

// TraceRun executes Table 3's ping-pong as a direct run (see Run) under
// the named tool with the engine's execution trace enabled, and returns
// the formatted event log — the reproduction's answer to the ADL
// debugging-support criterion ("the ability to trace the execution of
// the parallel application", §2.3). maxEvents caps the log (0 =
// everything).
func (h *Harness) TraceRun(ctx context.Context, pfKey, toolName string, size, maxEvents int) ([]string, error) {
	var events []string
	trace := func(ev sim.TraceEvent) {
		if maxEvents > 0 && len(events) >= maxEvents {
			return
		}
		line := fmt.Sprintf("%12.3fms  %-6s", ev.T.Milliseconds(), ev.Kind)
		if ev.Proc != "" {
			line += " " + ev.Proc
		}
		if ev.Detail != "" {
			line += "  (" + ev.Detail + ")"
		}
		events = append(events, line)
	}
	_, err := h.Run(ctx, pfKey, toolName, mpt.RunConfig{Procs: 2, Trace: trace}, pingPong(size))
	return events, err
}
