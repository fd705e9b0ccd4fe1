package bench

import (
	"context"

	"tooleval/internal/core"
	"tooleval/internal/usability"
)

// Evaluate runs the complete multi-level methodology: it regenerates the
// TPL measurements (Table 3 and Figures 2-4), the APL measurements on
// the SUN/Ethernet platform at the given workload scale, combines them
// with the paper's ADL matrix, and returns the weighted evaluation.
//
// The five regeneration steps are independent, so they fan out through
// the runner like any other cells; every simulation they need is
// memoized, so an Evaluate following a `toolbench all` sweep re-uses
// the sweep's results and simulates nothing.
func (h *Harness) Evaluate(ctx context.Context, profile core.WeightProfile, scale float64) (_ *core.Evaluation, err error) {
	h.phaseStart(ctx, ExpReport)
	defer h.phaseDone(ctx, ExpReport, &err)
	var (
		t3               *Table3Result
		fig2, fig3, fig4 *FigureResult
		apl              []core.AppMeasurement
	)
	steps := append(h.tplSteps(ctx, 4, &t3, &fig2, &fig3, &fig4),
		func() (err error) { _, apl, err = h.APLFigure(ctx, ExpFig8, scale); return })
	if err := h.x.Map(ctx, len(steps), func(i int) error { return steps[i]() }); err != nil {
		return nil, err
	}
	adl, err := usability.Matrix()
	if err != nil {
		return nil, err
	}
	m, err := core.New(profile)
	if err != nil {
		return nil, err
	}
	return m.Evaluate(tplMeasurements(t3, fig2, fig3, fig4), apl, adl)
}
