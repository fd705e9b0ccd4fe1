package bench

import (
	"fmt"
	"testing"

	"tooleval/internal/paperdata"
	"tooleval/internal/platform"
)

// TestCalibrationReport prints the simulated Table 3 next to the paper's
// numbers. Run with -v to inspect the fit while tuning tool parameters.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration report skipped in -short")
	}
	sizes := StandardSizes()
	for _, net := range []string{"ethernet", "atm-lan", "atm-wan"} {
		pf, err := platform.Get(paperdata.Table3PlatformKey[net])
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("=== %s (%s) ===", net, pf.Name)
		for _, tool := range []string{"p4", "pvm", "express"} {
			paper, ok := paperdata.Table3[tool][net]
			if !ok {
				continue
			}
			got, err := sharedH.PingPong(bgCtx, pf.Key, tool, sizes)
			if err != nil {
				t.Fatalf("%s/%s: %v", net, tool, err)
			}
			line := fmt.Sprintf("%-8s", tool)
			for i := range sizes {
				line += fmt.Sprintf("  %7.1f/%-7.1f", got[i], paper[i])
			}
			t.Log(line + "   (sim/paper ms)")
		}
	}
}
