package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tooleval"
	"tooleval/internal/core"
	"tooleval/internal/runner"
	"tooleval/internal/usability"
)

// paperScale is the APL workload scale of the paper-all pass; the
// golden report is pinned at the same scale.
const paperScale = 0.1

// goldenReport is the end-user report toolbench pins, relative to the
// repository root.
var goldenReport = filepath.Join("cmd", "toolbench", "testdata", "report-end-user.golden.json")

// paperFixture runs what `toolbench -j 2 -scale 0.1 all` does, one pass
// per op in a fresh session: every experiment rendered, then the
// closing report.
type paperFixture struct {
	golden  []byte
	textRef [32]byte // experiments' text output from the set-up pass
}

func setupPaperAll(ctx context.Context, cfg config, _ *tracer) (fixture, error) {
	golden, err := os.ReadFile(filepath.Join(cfg.root, goldenReport))
	if err != nil {
		return nil, err
	}
	f := &paperFixture{golden: golden}
	// The set-up pass fixes the reference for the experiments' text and
	// proves the report against the golden file once before timing.
	text, err := f.pass(ctx, tooleval.NewSession(tooleval.WithParallelism(slots)), nil)
	if err != nil {
		return nil, err
	}
	f.textRef = text
	return f, nil
}

func (f *paperFixture) op(ctx context.Context, _, _ int, tr *tracer) opResult {
	var opts []tooleval.Option
	if tr != nil {
		opts = append(opts, tooleval.WithExecutor(timedExecutor{Executor: runner.New(slots), tr: tr}))
	} else {
		opts = append(opts, tooleval.WithParallelism(slots))
	}
	sess := tooleval.NewSession(opts...)
	text, err := f.pass(ctx, sess, tr)
	hits, misses := sess.Stats()
	res := opResult{cells: int(hits + misses), err: err}
	if err == nil && text != f.textRef {
		res.err = errors.New("experiment output differs from the set-up pass")
	}
	return res
}

// pass runs every experiment and the closing report in sess, checks the
// report against the golden file, and returns a hash of the
// experiments' rendered text.
func (f *paperFixture) pass(ctx context.Context, sess *tooleval.Session, tr *tracer) ([32]byte, error) {
	h := sha256.New()
	for _, exp := range tooleval.Experiments() {
		text, err := renderExperiment(ctx, sess, exp)
		if err != nil {
			return [32]byte{}, fmt.Errorf("%s: %w", exp, err)
		}
		h.Write([]byte(text))
	}
	var id, t0 int64
	if tr != nil {
		id, t0 = tr.newID(), tr.now()
	}
	start := time.Now()
	ev, err := sess.Evaluate(ctx, tooleval.EndUserProfile(), paperScale)
	if err != nil {
		return [32]byte{}, fmt.Errorf("report: %w", err)
	}
	blob, err := tooleval.MarshalReport(ev)
	if err != nil {
		return [32]byte{}, fmt.Errorf("report: %w", err)
	}
	if tr != nil {
		ref, _ := spanFrom(ctx)
		tr.record(span{ID: id, Parent: ref.id, Op: ref.op, Layer: "core", Name: "report", Start: t0, End: tr.now()})
		tr.sample("core.report_ms", float64(time.Since(start).Nanoseconds())/1e6)
	}
	h.Write([]byte(core.RenderEvaluation(ev)))
	if !bytes.Equal(append(blob, '\n'), f.golden) {
		return [32]byte{}, errors.New("report JSON differs from the golden file")
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// renderExperiment is one experiment of toolbench's `all`, rendered as
// its text output.
func renderExperiment(ctx context.Context, sess *tooleval.Session, exp string) (string, error) {
	switch exp {
	case "table3":
		t3, err := sess.Table3(ctx)
		if err != nil {
			return "", err
		}
		return t3.Render(), nil
	case "table4":
		rankings, err := sess.Table4(ctx, 4)
		if err != nil {
			return "", err
		}
		return core.RenderTable4(rankings, "sun-ethernet") + "\n" + core.RenderTable4(rankings, "sun-atm-wan"), nil
	case "fig2", "fig3", "fig4":
		var fig *tooleval.FigureResult
		var err error
		switch exp {
		case "fig2":
			fig, err = sess.Fig2(ctx, 4)
		case "fig3":
			fig, err = sess.Fig3(ctx, 4)
		default:
			fig, err = sess.Fig4(ctx, 4)
		}
		if err != nil {
			return "", err
		}
		return fig.Render(), nil
	case "fig5", "fig6", "fig7", "fig8":
		fig, _, err := sess.APLFigure(ctx, exp, paperScale)
		if err != nil {
			return "", err
		}
		return fig.Render(), nil
	case "adl":
		return usability.Render()
	}
	return "", fmt.Errorf("unknown experiment %q", exp)
}

func (f *paperFixture) check(context.Context) (int, error) { return 0, nil }

func (f *paperFixture) close() error { return nil }
