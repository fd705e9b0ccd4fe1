package bench

import (
	"context"
	"fmt"

	"tooleval/internal/apps"
	"tooleval/internal/runner"
)

// APLSeries is one application's execution-time curve for one tool on
// one platform — one line on Figures 5-8.
type APLSeries struct {
	App      string
	Platform string
	Tool     string
	Procs    []int
	Seconds  []float64
}

// RunAPL executes one application across the processor sweep on the
// platform keyed pfKey and returns its curve. Results are verified
// against the sequential reference at every point — a benchmark data
// point that computed the wrong answer is an error, not a number.
// Processor counts the application's ValidProcs rejects at this scale
// are skipped, and a sweep left with none is an error. Each sweep point
// is an independent cell: the runner fans them out and memoizes them by
// (platform, tool, app, procs, scale).
func (h *Harness) RunAPL(ctx context.Context, pfKey, toolName, appName string, procsList []int, scale float64) (APLSeries, error) {
	s := APLSeries{App: appName, Platform: pfKey, Tool: toolName}
	if _, err := h.RequirePort(pfKey, toolName); err != nil {
		return s, err
	}
	app, err := apps.Get(appName)
	if err != nil {
		return s, err
	}
	sweep := make([]int, 0, len(procsList))
	for _, procs := range procsList {
		if app.ValidProcs(procs, scale) {
			sweep = append(sweep, procs)
		}
	}
	if len(sweep) == 0 {
		return s, fmt.Errorf("bench: %s at scale %g runs on none of the processor counts %v", appName, scale, procsList)
	}
	times, err := runner.Collect(ctx, h.x, sweep, func(procs int) (float64, error) {
		return h.cell(ctx, runner.Key{Platform: pfKey, Tool: toolName, Bench: APLBenchPrefix + appName, Procs: procs, Scale: scale})
	})
	if err != nil {
		return s, err
	}
	s.Procs = sweep
	s.Seconds = times
	return s, nil
}
