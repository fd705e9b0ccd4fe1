package bench

import (
	"fmt"
	"testing"

	"tooleval/internal/paperdata"
	"tooleval/internal/platform"
)

// TestAPLCalibrationReport prints simulated single-processor application
// times next to the values read off Figures 5-8, plus the full sweep for
// p4. Run with -v while tuning cost models.
func TestAPLCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration report skipped in -short")
	}
	for _, fig := range paperdata.APLPlatforms {
		pf, err := platform.Get(fig.Platform)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("=== %s (%s) ===", fig.Figure, pf.Name)
		for _, app := range paperdata.APLApps {
			s, err := sharedH.RunAPL(bgCtx, pf.Key, "p4", app, []int{1, 2, 4, 8}, 1.0)
			if err != nil {
				t.Fatalf("%s/%s: %v", fig.Platform, app, err)
			}
			paper := paperdata.APLSingleProcSeconds[fig.Figure][app]
			t.Logf("%-11s 1p sim=%8.3fs paper~%8.3fs | p4 sweep %v -> %v", app, s.Seconds[0], paper, s.Procs, fmtSecs(s.Seconds))
		}
	}
}

func fmtSecs(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}
