package apps_test

import (
	"testing"

	"tooleval/internal/apps"
	"tooleval/internal/mpt"
	"tooleval/internal/mpt/tools"
	"tooleval/internal/paperdata"
	"tooleval/internal/platform"
)

// TestEveryAppOnEveryToolVerifies is the suite's core integration test:
// each application runs on each message-passing tool over a simulated
// platform, and rank 0's result must match the sequential reference.
func TestEveryAppOnEveryToolVerifies(t *testing.T) {
	const scale = 0.12 // shrink paper workloads for test speed
	pf, err := platform.Get("alpha-fddi")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps.Registry() {
		for _, toolName := range tools.Names() {
			app, toolName := app, toolName
			t.Run(app.Name+"/"+toolName, func(t *testing.T) {
				factory, err := tools.Factory(toolName)
				if err != nil {
					t.Fatal(err)
				}
				procs := 4
				if !app.ValidProcs(procs, scale) {
					t.Fatalf("%s cannot run on %d procs", app.Name, procs)
				}
				res, err := mpt.Run(pf, factory, mpt.RunConfig{Procs: procs}, func(c *mpt.Ctx) (any, error) {
					return app.Run(c, scale)
				})
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if err := app.Verify(res.Value, procs, scale); err != nil {
					t.Fatalf("verify: %v", err)
				}
				if res.Elapsed <= 0 {
					t.Fatal("no virtual time elapsed")
				}
			})
		}
	}
}

// TestAppsScaleDown checks the paper's core scaling claim for the
// compute-bound applications: more processors, less time (on a fast
// network).
func TestAppsScaleDown(t *testing.T) {
	const scale = 0.25
	pf, err := platform.Get("alpha-fddi")
	if err != nil {
		t.Fatal(err)
	}
	factory, err := tools.Factory("p4")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"jpeg", "montecarlo"} {
		app, err := apps.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		times := map[int]float64{}
		for _, procs := range []int{1, 4} {
			res, err := mpt.Run(pf, factory, mpt.RunConfig{Procs: procs}, func(c *mpt.Ctx) (any, error) {
				return app.Run(c, scale)
			})
			if err != nil {
				t.Fatalf("%s on %d procs: %v", name, procs, err)
			}
			times[procs] = res.Elapsed.Seconds()
		}
		if !(times[4] < times[1]*0.55) {
			t.Fatalf("%s: 4 procs (%f s) should be well under 1 proc (%f s)", name, times[4], times[1])
		}
	}
}

func TestSingleProcRuns(t *testing.T) {
	const scale = 0.1
	pf, err := platform.Get("sp1-switch")
	if err != nil {
		t.Fatal(err)
	}
	factory, err := tools.Factory("pvm")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps.Registry() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			res, err := mpt.Run(pf, factory, mpt.RunConfig{Procs: 1}, func(c *mpt.Ctx) (any, error) {
				return app.Run(c, scale)
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Verify(res.Value, 1, scale); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRegistryLookup(t *testing.T) {
	reg := apps.Registry()
	if len(reg) != len(paperdata.APLApps) {
		t.Fatalf("registry has %d apps, want the paper's %d", len(reg), len(paperdata.APLApps))
	}
	for i, n := range paperdata.APLApps {
		if reg[i].Name != n {
			t.Fatalf("registry[%d] = %q, want %q (the paper's order)", i, reg[i].Name, n)
		}
		if _, err := apps.Get(n); err != nil {
			t.Fatalf("Get(%q): %v", n, err)
		}
	}
	if _, err := apps.Get("nonexistent"); err == nil {
		t.Fatal("unknown app should error")
	}
}
