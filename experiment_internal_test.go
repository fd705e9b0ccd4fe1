package tooleval

import (
	"strings"
	"testing"
)

// TestValidateErrorPaths pins every rejection ExperimentSpec.validate
// can produce: each Kind's missing-field message, an unknown catalog
// name, the unknown Kind, the empty Kind, and a set field the Kind does
// not read. The messages are part of the batch API's contract —
// Submit/Stream/SubmitAll surface them verbatim (prefixed with the spec
// index), so a drift here is user-visible.
func TestValidateErrorPaths(t *testing.T) {
	valid := map[string]ExperimentSpec{
		KindPingPong:  {Kind: KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0}},
		KindBroadcast: {Kind: KindBroadcast, Platform: "sun-ethernet", Tool: "p4", Procs: 2, Sizes: []int{0}},
		KindRing:      {Kind: KindRing, Platform: "sun-ethernet", Tool: "p4", Procs: 2, Sizes: []int{0}},
		KindGlobalSum: {Kind: KindGlobalSum, Platform: "sun-ethernet", Tool: "p4", Procs: 2, Sizes: []int{10}},
		KindApp:       {Kind: KindApp, Platform: "sun-ethernet", Tool: "p4", App: "jpeg", ProcsList: []int{1}, Scale: 0.1},
		KindEvaluate:  {Kind: KindEvaluate, Scale: 0.1},
	}
	for kind, spec := range valid {
		if err := spec.validate(); err != nil {
			t.Fatalf("valid %s spec rejected: %v", kind, err)
		}
	}
	// An empty list is unset, as the wire's omitempty treats it.
	empty := valid[KindEvaluate]
	empty.Sizes, empty.ProcsList = []int{}, []int{}
	if err := empty.validate(); err != nil {
		t.Fatalf("empty lists rejected: %v", err)
	}

	tests := []struct {
		name    string
		mutate  func(ExperimentSpec) ExperimentSpec
		base    string
		wantMsg string
	}{
		{"pingpong no sizes", clearSizes, KindPingPong, "pingpong: Sizes required"},
		{"broadcast no sizes", clearSizes, KindBroadcast, "broadcast: Sizes required"},
		{"broadcast procs 0", clearProcs, KindBroadcast, "broadcast: Procs = 0, need >= 2"},
		{"broadcast procs 1", setProcs(1), KindBroadcast, "broadcast: Procs = 1, need >= 2"},
		{"ring no sizes", clearSizes, KindRing, "ring: Sizes required"},
		{"ring procs 0", clearProcs, KindRing, "ring: Procs = 0, need >= 2"},
		{"globalsum no sizes", clearSizes, KindGlobalSum, "globalsum: Sizes required"},
		{"globalsum procs 0", clearProcs, KindGlobalSum, "globalsum: Procs = 0, need >= 2"},
		{"app no app", func(s ExperimentSpec) ExperimentSpec { s.App = ""; return s }, KindApp, "app: App required"},
		{"app no procslist", func(s ExperimentSpec) ExperimentSpec { s.ProcsList = nil; return s }, KindApp, "app: ProcsList required"},
		{"app zero scale", func(s ExperimentSpec) ExperimentSpec { s.Scale = 0; return s }, KindApp, "app: Scale = 0, need > 0"},
		{"app unknown app", func(s ExperimentSpec) ExperimentSpec { s.App = "matmul"; return s }, KindApp, `app: apps: unknown application "matmul"`},
		{"app unknown platform", func(s ExperimentSpec) ExperimentSpec { s.Platform = "cray-t3d"; return s }, KindApp, `app: platform: unknown key "cray-t3d"`},
		{"pingpong no platform", func(s ExperimentSpec) ExperimentSpec { s.Platform = ""; return s }, KindPingPong, `pingpong: platform: unknown key ""`},
		{"app negative scale", func(s ExperimentSpec) ExperimentSpec { s.Scale = -1; return s }, KindApp, "app: Scale = -1, need > 0"},
		{"evaluate zero scale", func(s ExperimentSpec) ExperimentSpec { s.Scale = 0; return s }, KindEvaluate, "evaluate: Scale = 0, need > 0"},
		{"evaluate unknown profile", func(s ExperimentSpec) ExperimentSpec { s.Profile = "operator"; return s }, KindEvaluate, `unknown profile "operator"`},
		{"unknown kind", func(s ExperimentSpec) ExperimentSpec { s.Kind = "frobnicate"; return s }, KindPingPong, `unknown Kind "frobnicate"`},
		{"empty kind", func(s ExperimentSpec) ExperimentSpec { s.Kind = ""; return s }, KindPingPong, "missing Kind"},
		// A set field that the Kind does not read.
		{"pingpong procs", setProcs(8), KindPingPong, "pingpong: Procs set, but pingpong reads only Platform, Tool, Sizes"},
		{"pingpong negative procs and scale", func(s ExperimentSpec) ExperimentSpec { s.Procs, s.Scale = -5, -1; return s }, KindPingPong,
			"pingpong: Procs, Scale set, but pingpong reads only Platform, Tool, Sizes"},
		{"pingpong app", func(s ExperimentSpec) ExperimentSpec { s.App = "jpeg"; return s }, KindPingPong, "pingpong: App set"},
		{"broadcast scale", func(s ExperimentSpec) ExperimentSpec { s.Scale = 1; return s }, KindBroadcast,
			"broadcast: Scale set, but broadcast reads only Platform, Tool, Procs, Sizes"},
		{"broadcast procslist", func(s ExperimentSpec) ExperimentSpec { s.ProcsList = []int{2}; return s }, KindBroadcast, "broadcast: ProcsList set"},
		{"ring app", func(s ExperimentSpec) ExperimentSpec { s.App = "jpeg"; return s }, KindRing,
			"ring: App set, but ring reads only Platform, Tool, Procs, Sizes"},
		{"ring profile", func(s ExperimentSpec) ExperimentSpec { s.Profile = "developer"; return s }, KindRing, "ring: Profile set"},
		{"globalsum procslist", func(s ExperimentSpec) ExperimentSpec { s.ProcsList = []int{1, 2}; return s }, KindGlobalSum,
			"globalsum: ProcsList set, but globalsum reads only Platform, Tool, Procs, Sizes"},
		{"globalsum scale", func(s ExperimentSpec) ExperimentSpec { s.Scale = 0.5; return s }, KindGlobalSum, "globalsum: Scale set"},
		{"app sizes, procs and profile", func(s ExperimentSpec) ExperimentSpec {
			s.Sizes, s.Procs, s.Profile = []int{64}, 99, "nonsense"
			return s
		}, KindApp, "app: Procs, Sizes, Profile set, but app reads only Platform, Tool, App, ProcsList, Scale"},
		{"evaluate platform", func(s ExperimentSpec) ExperimentSpec { s.Platform = "sun-ethernet"; return s }, KindEvaluate,
			"evaluate: Platform set, but evaluate reads only Scale, Profile"},
		{"evaluate every tpl and app field", func(s ExperimentSpec) ExperimentSpec {
			s.Tool, s.Procs, s.Sizes, s.App, s.ProcsList = "p4", 4, []int{0}, "jpeg", []int{1}
			return s
		}, KindEvaluate, "evaluate: Tool, Procs, Sizes, App, ProcsList set"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := tt.mutate(valid[tt.base])
			err := spec.validate()
			if err == nil {
				t.Fatalf("spec %+v accepted, want %q", spec, tt.wantMsg)
			}
			if !strings.Contains(err.Error(), tt.wantMsg) {
				t.Fatalf("validate error = %q, want it to contain %q", err, tt.wantMsg)
			}
		})
	}
}

func clearSizes(s ExperimentSpec) ExperimentSpec { s.Sizes = nil; return s }
func clearProcs(s ExperimentSpec) ExperimentSpec { s.Procs = 0; return s }
func setProcs(n int) func(ExperimentSpec) ExperimentSpec {
	return func(s ExperimentSpec) ExperimentSpec { s.Procs = n; return s }
}

// TestValidateAcceptsDefaultProfile: an empty Profile selects end-user
// rather than failing.
func TestValidateAcceptsDefaultProfile(t *testing.T) {
	if err := (ExperimentSpec{Kind: KindEvaluate, Scale: 0.1}).validate(); err != nil {
		t.Fatalf("empty profile must default, got %v", err)
	}
}
