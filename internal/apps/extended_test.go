package apps_test

import (
	"testing"

	"tooleval/internal/apps"
	"tooleval/internal/mpt"
	"tooleval/internal/mpt/tools"
	"tooleval/internal/platform"
)

// TestExtendedSuiteOnEveryTool runs every application on every
// message-passing tool on the SP-1 switch, verifying against the
// sequential references. TestEveryAppOnEveryToolVerifies covers the same
// pairs on alpha-fddi.
func TestExtendedSuiteOnEveryTool(t *testing.T) {
	const scale = 0.15
	pf, err := platform.Get("sp1-switch")
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
				const procs = 4
				res, err := mpt.Run(pf, factory, mpt.RunConfig{Procs: procs}, func(c *mpt.Ctx) (any, error) {
					return app.Run(c, scale)
				})
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if err := app.Verify(res.Value, procs, scale); err != nil {
					t.Fatalf("verify: %v", err)
				}
			})
		}
	}
}

// TestExtendedSuiteOddProcs exercises non-power-of-two and single
// processor counts, where share arithmetic has its edge cases; fft2d
// skips the counts that do not divide its scaled grid.
func TestExtendedSuiteOddProcs(t *testing.T) {
	const scale = 0.1
	pf, err := platform.Get("alpha-fddi")
	if err != nil {
		t.Fatal(err)
	}
	factory, err := tools.Factory("p4")
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps.Registry() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			for _, procs := range []int{1, 3, 5} {
				if !app.ValidProcs(procs, scale) {
					continue
				}
				res, err := mpt.Run(pf, factory, mpt.RunConfig{Procs: procs}, func(c *mpt.Ctx) (any, error) {
					return app.Run(c, scale)
				})
				if err != nil {
					t.Fatalf("procs=%d: %v", procs, err)
				}
				if err := app.Verify(res.Value, procs, scale); err != nil {
					t.Fatalf("procs=%d verify: %v", procs, err)
				}
			}
		})
	}
}
