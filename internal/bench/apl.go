package bench

import (
	"context"

	"tooleval/internal/apps"
	"tooleval/internal/platform"
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

// ProcSweep returns the processor counts the paper sweeps on a platform
// (1..MaxProcs, restricted to counts the application accepts).
func ProcSweep(pf platform.Platform, app apps.App) []int {
	var out []int
	for p := 1; p <= pf.MaxProcs; p++ {
		if app.ValidProcs(p) {
			out = append(out, p)
		}
	}
	return out
}

// RunAPL executes one application across the processor sweep on the
// platform keyed pfKey and returns its curve. Results are verified
// against the sequential reference at every point — a benchmark data
// point that computed the wrong answer is an error, not a number. Each
// sweep point is an independent cell: the runner fans them out and
// memoizes them by (platform, tool, app, procs, scale).
func (h *Harness) RunAPL(ctx context.Context, pfKey, toolName, appName string, procsList []int, scale float64) (APLSeries, error) {
	s := APLSeries{App: appName, Platform: pfKey, Tool: toolName}
	pf, err := platform.Get(pfKey)
	if err != nil {
		return s, err
	}
	if err := h.requirePort(pf, toolName); err != nil {
		return s, err
	}
	app, err := apps.Get(appName)
	if err != nil {
		return s, err
	}
	sweep := make([]int, 0, len(procsList))
	for _, procs := range procsList {
		if app.ValidProcs(procs) {
			sweep = append(sweep, procs)
		}
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
