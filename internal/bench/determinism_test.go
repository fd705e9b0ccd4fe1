package bench

import (
	"errors"
	"fmt"
	"testing"

	"tooleval/internal/core"
	"tooleval/internal/mpt"
	"tooleval/internal/mpt/tools"
	"tooleval/internal/platform"
)

// TestTPLDeterministicUnderParallelism is the core determinism
// guarantee of the scheduler: for every tool on every platform that
// ports it, each TPL benchmark produces bit-identical curves whether
// the cells run strictly serially (-j 1) or fanned out over four
// workers. Virtual time makes each cell a pure function of its key;
// this test proves the fan-out neither perturbs the simulations nor
// reorders their assembly. Each harness starts from an empty cache (a
// shared cache would let the parallel sweep trivially replay the
// serial one).
func TestTPLDeterministicUnderParallelism(t *testing.T) {
	sizes := []int{0, 1 << 10, 4 << 10}
	vecs := []int{100, 1000}
	benches := []struct {
		name string
		run  func(h *Harness, pf platform.Platform, tool string, procs int) ([]float64, error)
	}{
		{"PingPong", func(h *Harness, pf platform.Platform, tool string, _ int) ([]float64, error) {
			return h.PingPong(bgCtx, pf.Key, tool, sizes)
		}},
		{"Broadcast", func(h *Harness, pf platform.Platform, tool string, procs int) ([]float64, error) {
			return h.Broadcast(bgCtx, pf.Key, tool, procs, sizes)
		}},
		{"Ring", func(h *Harness, pf platform.Platform, tool string, procs int) ([]float64, error) {
			return h.Ring(bgCtx, pf.Key, tool, procs, sizes)
		}},
		{"GlobalSum", func(h *Harness, pf platform.Platform, tool string, procs int) ([]float64, error) {
			return h.GlobalSum(bgCtx, pf.Key, tool, procs, vecs)
		}},
	}
	for _, pf := range platform.All() {
		for _, tool := range tools.Names() {
			if !pf.Supports(tool) {
				continue
			}
			procs := 4
			if pf.MaxProcs < procs {
				procs = pf.MaxProcs
			}
			for _, bm := range benches {
				bm := bm
				pf := pf
				tool := tool
				t.Run(fmt.Sprintf("%s/%s/%s", bm.name, pf.Key, tool), func(t *testing.T) {
					serial, serialErr := bm.run(freshHarness(1), pf, tool, procs)
					par, parErr := bm.run(freshHarness(4), pf, tool, procs)
					if (serialErr == nil) != (parErr == nil) {
						t.Fatalf("error mismatch: serial=%v parallel=%v", serialErr, parErr)
					}
					if serialErr != nil {
						// PVM has no global operation (Table 1): both modes
						// must agree on the failure too.
						if !errors.Is(serialErr, mpt.ErrNotSupported) {
							t.Fatalf("unexpected error: %v", serialErr)
						}
						return
					}
					if len(serial) != len(par) {
						t.Fatalf("length mismatch: serial %d, parallel %d", len(serial), len(par))
					}
					for i := range serial {
						if serial[i] != par[i] {
							t.Fatalf("point %d differs: serial %v, parallel %v (curves %v vs %v)",
								i, serial[i], par[i], serial, par)
						}
					}
				})
			}
		}
	}
}

// TestAPLDeterministicUnderParallelism extends the bit-identical
// guarantee to the application sweeps (one curve per figure line).
func TestAPLDeterministicUnderParallelism(t *testing.T) {
	pf, err := platform.Get("sun-ethernet")
	if err != nil {
		t.Fatal(err)
	}
	procs := []int{1, 2, 4}
	const scale = 0.05
	for _, tool := range tools.Names() {
		tool := tool
		t.Run(tool, func(t *testing.T) {
			serial, serialErr := freshHarness(1).RunAPL(bgCtx, pf.Key, tool, "montecarlo", procs, scale)
			par, parErr := freshHarness(4).RunAPL(bgCtx, pf.Key, tool, "montecarlo", procs, scale)
			if serialErr != nil || parErr != nil {
				t.Fatalf("errors: serial=%v parallel=%v", serialErr, parErr)
			}
			if len(serial.Seconds) != len(par.Seconds) {
				t.Fatalf("length mismatch: %d vs %d", len(serial.Seconds), len(par.Seconds))
			}
			for i := range serial.Seconds {
				if serial.Seconds[i] != par.Seconds[i] || serial.Procs[i] != par.Procs[i] {
					t.Fatalf("point %d differs: serial (%d, %v), parallel (%d, %v)",
						i, serial.Procs[i], serial.Seconds[i], par.Procs[i], par.Seconds[i])
				}
			}
		})
	}
}

// TestEvaluateMemoizesAcrossSweeps asserts the `toolbench all` →
// report property end to end: after the experiments have run once, a
// full Evaluate must be served entirely from the memoization cache —
// zero additional simulations (cache misses).
func TestEvaluateMemoizesAcrossSweeps(t *testing.T) {
	const scale = 0.05
	h := freshHarness(4)
	// The sweep `toolbench all` performs: the TPL tables/figures and
	// the APL figure the report consumes.
	if _, err := h.Table3(bgCtx); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Fig2(bgCtx, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Fig3(bgCtx, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Fig4(bgCtx, 4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.APLFigure(bgCtx, ExpFig8, scale); err != nil {
		t.Fatal(err)
	}
	after := h.Executor().Stats()
	if after.Misses == 0 {
		t.Fatal("sweep simulated nothing — stats wiring broken")
	}

	// The closing report re-derives every curve; each cell must hit.
	if _, err := h.Evaluate(bgCtx, core.EndUserProfile(), scale); err != nil {
		t.Fatal(err)
	}
	final := h.Executor().Stats()
	if final.Misses != after.Misses {
		t.Fatalf("Evaluate re-simulated %d cells that were already cached", final.Misses-after.Misses)
	}
	if final.Hits <= after.Hits {
		t.Fatalf("Evaluate hit no cached cells (hits %d -> %d)", after.Hits, final.Hits)
	}
}

// TestRepeatedFigureSimulatesOnce is the narrow version of the same
// property: regenerating one figure twice must not add a single miss.
func TestRepeatedFigureSimulatesOnce(t *testing.T) {
	h := freshHarness(4)
	first, err := h.Fig2(bgCtx, 4)
	if err != nil {
		t.Fatal(err)
	}
	misses := h.Executor().Stats().Misses
	second, err := h.Fig2(bgCtx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Executor().Stats().Misses; got != misses {
		t.Fatalf("second Fig2 simulated %d new cells, want 0", got-misses)
	}
	if len(first.Series) != len(second.Series) {
		t.Fatalf("series count changed: %d vs %d", len(first.Series), len(second.Series))
	}
	for i := range first.Series {
		for k := range first.Series[i].Points {
			if first.Series[i].Points[k] != second.Series[i].Points[k] {
				t.Fatalf("cached replay differs at series %d point %d", i, k)
			}
		}
	}
}
