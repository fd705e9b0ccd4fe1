// Package tplpass is the tool-performance-level (TPL) pass the
// benchmark's tpl-cold and remote-tpl workloads time: Table 3,
// Figures 2-4 and Table 4 regenerated in one session. It uses only the
// public tooleval Session API, so the drift command can run the same
// pass against older commits of the module.
package tplpass

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"tooleval"
)

// Figures lists the experiments a pass runs before Table 4, in
// canonical order. Table 4 re-consumes their cells, so it runs last.
var Figures = []string{"table3", "fig2", "fig3", "fig4"}

// Procs is the rank count of the figures and Table 4 (the paper's 4).
const Procs = 4

// Run regenerates the experiments of Figures in the given order, then
// Table 4, in sess, and returns a SHA-256 over their output taken in
// canonical order, so every order hashes alike.
func Run(ctx context.Context, sess *tooleval.Session, order []string) ([32]byte, error) {
	parts := make(map[string]string, len(order))
	for _, id := range order {
		var err error
		switch id {
		case "table3":
			var t3 *tooleval.Table3Result
			if t3, err = sess.Table3(ctx); err == nil {
				parts[id] = t3.Render()
			}
		case "fig2", "fig3", "fig4":
			var fig *tooleval.FigureResult
			switch id {
			case "fig2":
				fig, err = sess.Fig2(ctx, Procs)
			case "fig3":
				fig, err = sess.Fig3(ctx, Procs)
			default:
				fig, err = sess.Fig4(ctx, Procs)
			}
			if err == nil {
				parts[id] = fig.DatFile()
			}
		default:
			err = fmt.Errorf("tplpass: unknown experiment %q", id)
		}
		if err != nil {
			return [32]byte{}, err
		}
	}
	rankings, err := sess.Table4(ctx, Procs)
	if err != nil {
		return [32]byte{}, err
	}
	blob, err := json.Marshal(rankings)
	if err != nil {
		return [32]byte{}, err
	}
	h := sha256.New()
	for _, id := range Figures {
		h.Write([]byte(parts[id]))
	}
	h.Write(blob)
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}
