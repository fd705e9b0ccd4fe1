package bench

import (
	"testing"

	"tooleval/internal/paperdata"
	"tooleval/internal/platform"
)

const aplTestScale = 0.25

func runSeries(t *testing.T, pfKey, tool, app string, procs []int) APLSeries {
	t.Helper()
	pf := getPlatform(t, pfKey)
	s, err := sharedH.RunAPL(bgCtx, pf.Key, tool, app, procs, aplTestScale)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFig5ComputeAppsScaleOnFDDI asserts the paper's ALPHA/FDDI shapes:
// JPEG and Monte Carlo drop steadily with processors.
func TestFig5ComputeAppsScaleOnFDDI(t *testing.T) {
	for _, app := range []string{"jpeg", "montecarlo"} {
		s := runSeries(t, "alpha-fddi", "p4", app, []int{1, 2, 4, 8})
		if !(s.Seconds[3] < s.Seconds[0]/3) {
			t.Fatalf("%s on FDDI: 8 procs (%f) should be well under a third of 1 proc (%f)",
				app, s.Seconds[3], s.Seconds[0])
		}
	}
}

// TestFig5FFTScalesOnSwitchedFDDI: the FFT's all-to-all scales on the
// switched fabric (Fig 5 decreases), unlike on Ethernet. This shape only
// emerges at the paper's grid size — a shrunken grid has too little
// compute to amortize the exchange — so the test runs at full scale.
func TestFig5FFTScalesOnSwitchedFDDI(t *testing.T) {
	pf := getPlatform(t, "alpha-fddi")
	s, err := sharedH.RunAPL(bgCtx, pf.Key, "p4", "fft2d", []int{1, 8}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !(s.Seconds[1] < s.Seconds[0]) {
		t.Fatalf("fft2d on switched FDDI should speed up: 1p=%f 8p=%f", s.Seconds[0], s.Seconds[1])
	}
}

// TestFig8FFTDegradesOnEthernet: the same FFT slows down with processors
// on the shared 10 Mbit/s segment (Fig 8's flat-to-rising curves).
func TestFig8FFTDegradesOnEthernet(t *testing.T) {
	s := runSeries(t, "sun-ethernet", "p4", "fft2d", []int{1, 8})
	if !(s.Seconds[1] > s.Seconds[0]) {
		t.Fatalf("fft2d on Ethernet should slow down with procs: 1p=%f 8p=%f", s.Seconds[0], s.Seconds[1])
	}
}

// TestFig8SortInversionOnEthernet: PSRS gets slower with more processors
// on Ethernet — the record exchange swamps the sort savings (Fig 8).
func TestFig8SortInversionOnEthernet(t *testing.T) {
	s := runSeries(t, "sun-ethernet", "p4", "psrs", []int{1, 8})
	if !(s.Seconds[1] > s.Seconds[0]) {
		t.Fatalf("psrs on Ethernet should invert: 1p=%f 8p=%f", s.Seconds[0], s.Seconds[1])
	}
}

// TestPlatformOrdering: Alpha/FDDI is the fastest platform, the SP-1
// about half its speed, the SUN stations far behind (§3.3: "execution
// times are significantly higher on IBM-SP1 compared to ALPHA cluster").
func TestPlatformOrdering(t *testing.T) {
	jpegOn := func(pfKey string) float64 {
		s := runSeries(t, pfKey, "p4", "jpeg", []int{1})
		return s.Seconds[0]
	}
	alpha := jpegOn("alpha-fddi")
	sp1 := jpegOn("sp1-switch")
	eth := jpegOn("sun-ethernet")
	if !(alpha < sp1 && sp1 < eth) {
		t.Fatalf("platform ordering broken: alpha=%f sp1=%f ethernet=%f", alpha, sp1, eth)
	}
	ratio := sp1 / alpha
	if ratio < 1.5 || ratio > 3.5 {
		t.Fatalf("SP1/Alpha ratio = %.2f, paper shows roughly 2x", ratio)
	}
}

// TestFig7WANOutperformsEthernet: the paper's WAN-feasibility claim —
// the NYNET configuration beats the local Ethernet for the compute-bound
// applications.
func TestFig7WANOutperformsEthernet(t *testing.T) {
	for _, app := range []string{"jpeg", "montecarlo"} {
		wan := runSeries(t, "sun-atm-wan", "p4", app, []int{4})
		eth := runSeries(t, "sun-ethernet", "p4", app, []int{4})
		if !(wan.Seconds[0] < eth.Seconds[0]) {
			t.Fatalf("%s at 4 procs: NYNET (%f) should beat Ethernet (%f)", app, wan.Seconds[0], eth.Seconds[0])
		}
	}
}

// TestAPLToolOrderingCommHeavy: for the communication-heavy JPEG on
// Ethernet, p4's lean transport keeps it ahead of PVM and Express at 8
// processors (§3.3: "p4 implementation of JPEG compression ...
// understandably performs best").
func TestAPLToolOrderingCommHeavy(t *testing.T) {
	times := map[string]float64{}
	for _, tool := range []string{"p4", "pvm", "express"} {
		s := runSeries(t, "sun-ethernet", tool, "jpeg", []int{8})
		times[tool] = s.Seconds[0]
	}
	if !(times["p4"] <= times["pvm"] && times["p4"] <= times["express"]) {
		t.Fatalf("p4 should lead JPEG on Ethernet at 8 procs: %v", times)
	}
}

// TestAPLRejectsUnsupportedTool: Express has no NYNET port.
func TestAPLRejectsUnsupportedTool(t *testing.T) {
	pf := getPlatform(t, "sun-atm-wan")
	if _, err := sharedH.RunAPL(bgCtx, pf.Key, "express", "jpeg", []int{1}, aplTestScale); err == nil {
		t.Fatal("express on NYNET should be rejected")
	}
}

// TestAPLFigureSpecsMatchPaper: each figure uses the paper's platform,
// sweep and tool set.
func TestAPLFigureSpecsMatchPaper(t *testing.T) {
	for _, spec := range paperdata.APLPlatforms {
		if _, err := platform.Get(spec.Platform); err != nil {
			t.Fatalf("%s: %v", spec.Figure, err)
		}
		if spec.Figure == "fig7" {
			if spec.MaxProcs != 4 || len(spec.Tools) != 2 {
				t.Fatalf("fig7 must sweep 1-4 procs with p4+pvm, got %+v", spec)
			}
		} else if spec.MaxProcs != 8 || len(spec.Tools) != 3 {
			t.Fatalf("%s must sweep 1-8 procs with all three tools, got %+v", spec.Figure, spec)
		}
	}
}

// TestRunAPLSkipsInvalidProcs: FFT skips processor counts that do not
// divide the grid at the run's scale, including 64, which divides the
// unscaled grid of 128.
func TestRunAPLSkipsInvalidProcs(t *testing.T) {
	pf := getPlatform(t, "alpha-fddi")
	s, err := sharedH.RunAPL(bgCtx, pf.Key, "p4", "fft2d", []int{1, 2, 3, 4, 5, 6, 7, 8, 64}, aplTestScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Procs {
		if 32%p != 0 { // scale 0.25 of 128 = 32
			t.Fatalf("fft2d ran on %d procs which does not divide 32", p)
		}
	}
}
