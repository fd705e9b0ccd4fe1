package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"tooleval/internal/core"
	"tooleval/internal/paperdata"
	"tooleval/internal/platform"
	"tooleval/internal/runner"
)

// Experiment identifiers, one per table/figure of the paper's evaluation
// section.
const (
	ExpTable3 = "table3"
	ExpTable4 = "table4"
	ExpFig2   = "fig2"
	ExpFig3   = "fig3"
	ExpFig4   = "fig4"
	ExpFig5   = "fig5"
	ExpFig6   = "fig6"
	ExpFig7   = "fig7"
	ExpFig8   = "fig8"
	ExpADL    = "adl"

	// ExpReport is the phase id of the full multi-level evaluation
	// (Harness.Evaluate). It is not a table/figure regeneration, so it
	// is not part of Experiments().
	ExpReport = "report"
)

// Experiments lists all experiment ids in paper order.
func Experiments() []string {
	return []string{ExpTable3, ExpTable4, ExpFig2, ExpFig3, ExpFig4, ExpFig5, ExpFig6, ExpFig7, ExpFig8, ExpADL}
}

// Table3Result holds the regenerated Table 3.
type Table3Result struct {
	SizesBytes []int
	// TimesMs[network][tool][sizeIdx]; networks keyed "ethernet",
	// "atm-lan", "atm-wan" as in paperdata.
	TimesMs map[string]map[string][]float64
}

// Table3 regenerates the snd/recv timing table over the three SUN
// networks. The network×tool columns are independent sweeps, so they
// fan out through the runner; assembly into the result maps happens
// serially afterwards, in the fixed network/tool order.
func (h *Harness) Table3(ctx context.Context) (_ *Table3Result, err error) {
	h.phaseStart(ctx, ExpTable3)
	defer h.phaseDone(ctx, ExpTable3, &err)
	res := &Table3Result{SizesBytes: StandardSizes(), TimesMs: map[string]map[string][]float64{}}
	type job struct{ net, tool, pfKey string }
	var jobs []job
	for _, net := range []string{"ethernet", "atm-lan", "atm-wan"} {
		pf, err := platform.Get(paperdata.Table3PlatformKey[net])
		if err != nil {
			return nil, err
		}
		res.TimesMs[net] = map[string][]float64{}
		for _, tool := range []string{"p4", "pvm", "express"} {
			if !pf.Supports(tool) {
				continue // Express has no NYNET column
			}
			jobs = append(jobs, job{net: net, tool: tool, pfKey: pf.Key})
		}
	}
	times, err := runner.Collect(ctx, h.x, jobs, func(j job) ([]float64, error) {
		return h.PingPong(ctx, j.pfKey, j.tool, res.SizesBytes)
	})
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		res.TimesMs[j.net][j.tool] = times[i]
	}
	return res, nil
}

// Render formats the regenerated table next to the paper's values.
func (r *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 3: snd/recv round-trip timing for SUN SPARCstations (ms)\n")
	b.WriteString("         sim = this reproduction, paper = Hariri et al. 1995\n\n")
	for _, net := range []string{"ethernet", "atm-lan", "atm-wan"} {
		fmt.Fprintf(&b, "--- %s ---\n", net)
		fmt.Fprintf(&b, "%-9s", "KB")
		for _, tool := range []string{"p4", "pvm", "express"} {
			if _, ok := r.TimesMs[net][tool]; ok {
				fmt.Fprintf(&b, " %9s-sim %9s-ppr", tool, tool)
			}
		}
		b.WriteString("\n")
		for i, size := range r.SizesBytes {
			fmt.Fprintf(&b, "%-9d", size/1024)
			for _, tool := range []string{"p4", "pvm", "express"} {
				sim, ok := r.TimesMs[net][tool]
				if !ok {
					continue
				}
				paper := 0.0
				if pp, ok := paperdata.Table3[tool][net]; ok && i < len(pp) {
					paper = pp[i]
				}
				fmt.Fprintf(&b, " %13.2f %13.2f", sim[i], paper)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Measurements converts Table 3 output into methodology input.
func (r *Table3Result) Measurements() []core.PrimitiveMeasurement {
	var out []core.PrimitiveMeasurement
	nets := make([]string, 0, len(r.TimesMs))
	for net := range r.TimesMs {
		nets = append(nets, net)
	}
	sort.Strings(nets)
	for _, net := range nets {
		tools := make([]string, 0, len(r.TimesMs[net]))
		for t := range r.TimesMs[net] {
			tools = append(tools, t)
		}
		sort.Strings(tools)
		for _, tool := range tools {
			out = append(out, core.PrimitiveMeasurement{
				Platform:  paperdata.Table3PlatformKey[net],
				Primitive: "send/receive",
				Tool:      tool,
				Sizes:     r.SizesBytes,
				TimesMs:   r.TimesMs[net][tool],
			})
		}
	}
	return out
}

// FigureResult is a regenerated TPL figure: one or more series per
// platform.
type FigureResult struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Fig2 regenerates the broadcast figure (4 SUNs, Ethernet and ATM WAN).
func (h *Harness) Fig2(ctx context.Context, procs int) (*FigureResult, error) {
	return h.tplFigure(ctx, ExpFig2, "Broadcast timing", procs, StandardSizes(), h.Broadcast)
}

// Fig3 regenerates the ring figure.
func (h *Harness) Fig3(ctx context.Context, procs int) (*FigureResult, error) {
	return h.tplFigure(ctx, ExpFig3, "Ring (loop) timing", procs, StandardSizes(), h.Ring)
}

func (h *Harness) tplFigure(ctx context.Context, id, title string, procs int, sizes []int, run func(context.Context, string, string, int, []int) ([]float64, error)) (_ *FigureResult, err error) {
	h.phaseStart(ctx, id)
	defer h.phaseDone(ctx, id, &err)
	fig := &FigureResult{ID: id, Title: title + " on SUN stations", XLabel: "Message Size (Kbytes)", YLabel: "Execution Time (msec)"}
	type job struct{ key, tool string }
	var jobs []job
	for _, key := range []string{"sun-ethernet", "sun-atm-wan"} {
		pf, err := platform.Get(key)
		if err != nil {
			return nil, err
		}
		for _, tool := range []string{"p4", "pvm", "express"} {
			if !pf.Supports(tool) {
				continue
			}
			jobs = append(jobs, job{key: key, tool: tool})
		}
	}
	curves, err := runner.Collect(ctx, h.x, jobs, func(j job) (Series, error) {
		times, err := run(ctx, j.key, j.tool, procs, sizes)
		if err != nil {
			return Series{}, err
		}
		s := Series{Tool: j.tool, Platform: j.key}
		for k, sz := range sizes {
			s.Points = append(s.Points, Point{X: float64(sz) / 1024, Y: times[k]})
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = curves
	return fig, nil
}

// Fig4 regenerates the global summation figure (p4 and Express on
// Ethernet, p4 on NYNET; PVM has no global operation).
func (h *Harness) Fig4(ctx context.Context, procs int) (_ *FigureResult, err error) {
	h.phaseStart(ctx, ExpFig4)
	defer h.phaseDone(ctx, ExpFig4, &err)
	fig := &FigureResult{
		ID: ExpFig4, Title: "Vector global-sum timing on SUN stations",
		XLabel: "Vector Size (# of integers)", YLabel: "Execution Time (msec)",
	}
	lens := VectorSizes()
	type job struct{ label, tool, pfKey string }
	jobs := []job{
		{label: "p4", tool: "p4", pfKey: "sun-ethernet"},
		{label: "express", tool: "express", pfKey: "sun-ethernet"},
		{label: "p4-NYNET", tool: "p4", pfKey: "sun-atm-wan"},
	}
	curves, err := runner.Collect(ctx, h.x, jobs, func(j job) (Series, error) {
		times, err := h.GlobalSum(ctx, j.pfKey, j.tool, procs, lens)
		if err != nil {
			return Series{}, err
		}
		s := Series{Tool: j.label, Platform: j.pfKey}
		for k, n := range lens {
			s.Points = append(s.Points, Point{X: float64(n), Y: times[k]})
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = curves
	return fig, nil
}

// APLFigure regenerates one of Figures 5-8: the four applications on one
// platform across the tool set and processor sweep.
func (h *Harness) APLFigure(ctx context.Context, figID string, scale float64) (_ *FigureResult, _ []core.AppMeasurement, err error) {
	h.phaseStart(ctx, figID)
	defer h.phaseDone(ctx, figID, &err)
	var spec *struct {
		Figure   string
		Platform string
		MaxProcs int
		Tools    []string
	}
	for i := range paperdata.APLPlatforms {
		if paperdata.APLPlatforms[i].Figure == figID {
			spec = &paperdata.APLPlatforms[i]
			break
		}
	}
	if spec == nil {
		return nil, nil, fmt.Errorf("bench: unknown APL figure %q", figID)
	}
	pf, err := platform.Get(spec.Platform)
	if err != nil {
		return nil, nil, err
	}
	fig := &FigureResult{
		ID: figID, Title: "Application performances on " + pf.Name,
		XLabel: "Number of Processors", YLabel: "Execution Time (seconds)",
	}
	procs := make([]int, 0, spec.MaxProcs)
	for p := 1; p <= spec.MaxProcs; p++ {
		procs = append(procs, p)
	}
	type job struct{ app, tool string }
	var jobs []job
	for _, app := range paperdata.APLApps {
		for _, tool := range spec.Tools {
			jobs = append(jobs, job{app: app, tool: tool})
		}
	}
	sweeps, err := runner.Collect(ctx, h.x, jobs, func(j job) (APLSeries, error) {
		return h.RunAPL(ctx, pf.Key, j.tool, j.app, procs, scale)
	})
	if err != nil {
		return nil, nil, err
	}
	var measurements []core.AppMeasurement
	for i, j := range jobs {
		series := sweeps[i]
		s := Series{Tool: j.tool + "/" + j.app, Platform: pf.Key}
		for k := range series.Procs {
			s.Points = append(s.Points, Point{X: float64(series.Procs[k]), Y: series.Seconds[k]})
		}
		fig.Series = append(fig.Series, s)
		measurements = append(measurements, core.AppMeasurement{
			Platform: pf.Key, App: j.app, Tool: j.tool,
			Procs: series.Procs, Seconds: series.Seconds,
		})
	}
	return fig, measurements, nil
}

// Render formats a figure's series as aligned text columns.
func (f *FigureResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n%s vs %s\n\n", f.Title, f.ID, f.YLabel, f.XLabel)
	byPlatform := map[string][]Series{}
	var order []string
	for _, s := range f.Series {
		if _, ok := byPlatform[s.Platform]; !ok {
			order = append(order, s.Platform)
		}
		byPlatform[s.Platform] = append(byPlatform[s.Platform], s)
	}
	for _, pfKey := range order {
		group := byPlatform[pfKey]
		fmt.Fprintf(&b, "--- %s ---\n", pfKey)
		fmt.Fprintf(&b, "%-12s", "x")
		for _, s := range group {
			fmt.Fprintf(&b, " %14s", s.Tool)
		}
		b.WriteString("\n")
		if len(group) == 0 || len(group[0].Points) == 0 {
			continue
		}
		for i := range group[0].Points {
			fmt.Fprintf(&b, "%-12.0f", group[0].Points[i].X)
			for _, s := range group {
				if i < len(s.Points) {
					fmt.Fprintf(&b, " %14.3f", s.Points[i].Y)
				} else {
					fmt.Fprintf(&b, " %14s", "-")
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// DatFile renders the figure as a gnuplot-style whitespace-separated data
// file (one block per platform, column per series).
func (f *FigureResult) DatFile() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n# x: %s, y: %s\n", f.ID, f.Title, f.XLabel, f.YLabel)
	fmt.Fprintf(&b, "# columns: x")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %s@%s", s.Tool, s.Platform)
	}
	b.WriteString("\n")
	if len(f.Series) == 0 {
		return b.String()
	}
	maxLen := 0
	for _, s := range f.Series {
		if len(s.Points) > maxLen {
			maxLen = len(s.Points)
		}
	}
	for i := 0; i < maxLen; i++ {
		x := 0.0
		for _, s := range f.Series {
			if i < len(s.Points) {
				x = s.Points[i].X
				break
			}
		}
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, " %g", s.Points[i].Y)
			} else {
				b.WriteString(" nan")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// tplSteps returns the regeneration closures for Table 3 and Figures
// 2-4, writing into the caller's result slots. Callers compose them
// (plus any extra steps) into one Map fan-out — Table4 and Evaluate
// share this list so the step set cannot drift between them.
func (h *Harness) tplSteps(ctx context.Context, procs int, t3 **Table3Result, fig2, fig3, fig4 **FigureResult) []func() error {
	return []func() error{
		func() (err error) { *t3, err = h.Table3(ctx); return },
		func() (err error) { *fig2, err = h.Fig2(ctx, procs); return },
		func() (err error) { *fig3, err = h.Fig3(ctx, procs); return },
		func() (err error) { *fig4, err = h.Fig4(ctx, procs); return },
	}
}

// Table4 regenerates the primitive rankings end to end: Table 3 and
// Figures 2-4 fan out through one Map (each internally fanning out its
// own cells), then fold through Table4FromMeasurements.
func (h *Harness) Table4(ctx context.Context, procs int) (_ []core.PrimitiveRanking, err error) {
	h.phaseStart(ctx, ExpTable4)
	defer h.phaseDone(ctx, ExpTable4, &err)
	var (
		t3               *Table3Result
		fig2, fig3, fig4 *FigureResult
	)
	steps := h.tplSteps(ctx, procs, &t3, &fig2, &fig3, &fig4)
	if err := h.x.Map(ctx, len(steps), func(i int) error { return steps[i]() }); err != nil {
		return nil, err
	}
	return Table4FromMeasurements(t3, fig2, fig3, fig4), nil
}

// Table4FromMeasurements derives the Table 4 rankings from regenerated
// TPL data (send/receive from Table 3; broadcast, ring and global sum
// from Figures 2-4).
func Table4FromMeasurements(t3 *Table3Result, fig2, fig3, fig4 *FigureResult) []core.PrimitiveRanking {
	return core.RankPrimitives(tplMeasurements(t3, fig2, fig3, fig4))
}

// tplMeasurements converts regenerated Table 3 and Figure 2-4 data into
// methodology input. Sizes follow core.PrimitiveMeasurement: broadcast
// and ring x values are KB and become bytes, global-sum x values are
// already vector lengths. The p4-NYNET curve is a separate line on
// Figure 4, not a ranking entry.
func tplMeasurements(t3 *Table3Result, fig2, fig3, fig4 *FigureResult) []core.PrimitiveMeasurement {
	ms := t3.Measurements()
	add := func(fig *FigureResult, primitive string, xScale float64) {
		for _, s := range fig.Series {
			if s.Tool == "p4-NYNET" {
				continue
			}
			m := core.PrimitiveMeasurement{Platform: s.Platform, Primitive: primitive, Tool: s.Tool}
			for _, p := range s.Points {
				m.Sizes = append(m.Sizes, int(p.X*xScale))
				m.TimesMs = append(m.TimesMs, p.Y)
			}
			ms = append(ms, m)
		}
	}
	add(fig2, "broadcast", 1024)
	add(fig3, "ring", 1024)
	add(fig4, "global sum", 1)
	return ms
}
