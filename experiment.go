package tooleval

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"tooleval/internal/apps"
	"tooleval/internal/platform"
)

// Experiment kinds accepted by ExperimentSpec.Kind.
const (
	// KindPingPong sweeps the send/receive round trip over Sizes.
	KindPingPong = "pingpong"
	// KindBroadcast sweeps the collective broadcast over Sizes at Procs
	// ranks.
	KindBroadcast = "broadcast"
	// KindRing sweeps the ring/loop benchmark over Sizes at Procs ranks.
	KindRing = "ring"
	// KindGlobalSum sweeps the vector global sum over Sizes (vector
	// lengths) at Procs ranks.
	KindGlobalSum = "globalsum"
	// KindApp sweeps a suite application over ProcsList at Scale.
	KindApp = "app"
	// KindEvaluate runs the full multi-level methodology under Profile
	// at Scale.
	KindEvaluate = "evaluate"
)

// ExperimentSpec declares one experiment of a heterogeneous sweep as
// data: a TPL micro-benchmark, an APL application sweep, or a complete
// evaluation. Which fields apply depends on Kind (see the Kind*
// constants); a spec that sets a field its Kind does not read is
// rejected. The JSON tags are toolbenchd's wire form of a spec.
type ExperimentSpec struct {
	// Kind selects the experiment type (required).
	Kind string `json:"kind"`
	// Platform is the platform catalog key (all kinds except
	// "evaluate", which fixes the paper's platforms).
	Platform string `json:"platform,omitempty"`
	// Tool is the message-passing tool: built-in or registered via
	// WithTool (all kinds except "evaluate").
	Tool string `json:"tool,omitempty"`
	// Procs is the rank count ("broadcast", "ring", "globalsum").
	Procs int `json:"procs,omitempty"`
	// Sizes are message sizes in bytes, or vector lengths for
	// "globalsum" (the TPL kinds).
	Sizes []int `json:"sizes,omitempty"`
	// App names the suite application ("app"): "jpeg", "fft2d",
	// "montecarlo", "psrs".
	App string `json:"app,omitempty"`
	// ProcsList is the processor sweep ("app").
	ProcsList []int `json:"procs_list,omitempty"`
	// Scale shrinks the paper-scale workload ("app", "evaluate");
	// 1.0 reproduces the paper.
	Scale float64 `json:"scale,omitempty"`
	// Profile is the weight-profile name ("evaluate"); empty selects
	// "end-user".
	Profile string `json:"profile,omitempty"`
}

// kindFields names the fields each Kind reads; validate rejects any
// other field that is set.
var kindFields = map[string][]string{
	KindPingPong:  {"Platform", "Tool", "Sizes"},
	KindBroadcast: {"Platform", "Tool", "Procs", "Sizes"},
	KindRing:      {"Platform", "Tool", "Procs", "Sizes"},
	KindGlobalSum: {"Platform", "Tool", "Procs", "Sizes"},
	KindApp:       {"Platform", "Tool", "App", "ProcsList", "Scale"},
	KindEvaluate:  {"Scale", "Profile"},
}

// strayFields names, in field order, the set fields that spec's Kind
// does not read; an unknown Kind has none, validate reports it instead.
// An empty list counts as unset, as it does on the wire.
func (spec ExperimentSpec) strayFields() []string {
	reads, ok := kindFields[spec.Kind]
	if !ok {
		return nil
	}
	var stray []string
	for _, f := range [...]struct {
		name string
		set  bool
	}{
		{"Platform", spec.Platform != ""},
		{"Tool", spec.Tool != ""},
		{"Procs", spec.Procs != 0},
		{"Sizes", len(spec.Sizes) > 0},
		{"App", spec.App != ""},
		{"ProcsList", len(spec.ProcsList) > 0},
		{"Scale", spec.Scale != 0},
		{"Profile", spec.Profile != ""},
	} {
		if f.set && !slices.Contains(reads, f.name) {
			stray = append(stray, f.name)
		}
	}
	return stray
}

func (spec ExperimentSpec) String() string {
	switch spec.Kind {
	case KindApp:
		return fmt.Sprintf("%s %s/%s/%s scale=%g", spec.Kind, spec.Platform, spec.Tool, spec.App, spec.Scale)
	case KindEvaluate:
		profile := spec.Profile
		if profile == "" {
			profile = "end-user"
		}
		return fmt.Sprintf("%s profile=%s scale=%g", spec.Kind, profile, spec.Scale)
	default:
		return fmt.Sprintf("%s %s/%s procs=%d", spec.Kind, spec.Platform, spec.Tool, spec.Procs)
	}
}

// Result is the outcome of one ExperimentSpec. Exactly one of the
// payload fields is populated, matching the spec's Kind.
type Result struct {
	// Spec echoes the submitted experiment.
	Spec ExperimentSpec
	// Times holds the TPL curve in milliseconds, one entry per size
	// ("pingpong", "broadcast", "ring", "globalsum").
	Times []float64
	// App holds the application sweep ("app").
	App AppMeasurement
	// Evaluation holds the full methodology outcome ("evaluate").
	Evaluation *Evaluation
}

// Submit runs a heterogeneous batch of experiments through one ordered
// fan-out: every cell of every spec schedules onto the session's worker
// pool concurrently (bounded by WithParallelism and served from the
// session cache), and the results come back in spec order, bit-identical
// to running the specs one by one. It is the declarative way to express
// "the whole sweep" — callers build specs as data, Submit owns the
// scheduling.
//
// Submit is [Session.Stream] consumed to the first failure: the
// lowest-indexed failing spec aborts the batch (specs still in flight
// are cancelled), mirroring a serial loop's early exit; a cancelled ctx
// aborts it with ctx.Err(). Callers who want the rest of the batch
// despite a failure use [Session.SubmitAll]; callers who want results
// as they complete range over Stream directly.
func (s *Session) Submit(ctx context.Context, specs []ExperimentSpec) ([]Result, error) {
	// Validate the whole batch up front so a malformed spec is reported
	// before any simulation starts, whatever its position.
	for i, spec := range specs {
		if err := spec.validate(); err != nil {
			return nil, fmt.Errorf("tooleval: spec %d: %w", i, err)
		}
	}
	results := make([]Result, 0, len(specs))
	for res, err := range s.Stream(ctx, specs) {
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

// validate checks a spec without running it: its Kind, that it sets
// only the fields that Kind reads, the fields that Kind requires, and
// the catalog names of its platform, application and profile. Tool
// names resolve against the session's WithTool registry, so they are
// checked when the spec runs.
func (spec ExperimentSpec) validate() error {
	if stray := spec.strayFields(); len(stray) > 0 {
		return fmt.Errorf("%s: %s set, but %s reads only %s", spec.Kind,
			strings.Join(stray, ", "), spec.Kind, strings.Join(kindFields[spec.Kind], ", "))
	}
	switch spec.Kind {
	case KindPingPong, KindBroadcast, KindRing, KindGlobalSum, KindApp:
		if _, err := platform.Get(spec.Platform); err != nil {
			return fmt.Errorf("%s: %w", spec.Kind, err)
		}
	}
	switch spec.Kind {
	case KindPingPong:
		if len(spec.Sizes) == 0 {
			return fmt.Errorf("%s: Sizes required", spec.Kind)
		}
	case KindBroadcast, KindRing, KindGlobalSum:
		if len(spec.Sizes) == 0 {
			return fmt.Errorf("%s: Sizes required", spec.Kind)
		}
		if spec.Procs < 2 {
			return fmt.Errorf("%s: Procs = %d, need >= 2", spec.Kind, spec.Procs)
		}
	case KindApp:
		if spec.App == "" {
			return fmt.Errorf("%s: App required", spec.Kind)
		}
		if _, err := apps.Get(spec.App); err != nil {
			return fmt.Errorf("%s: %w", spec.Kind, err)
		}
		if len(spec.ProcsList) == 0 {
			return fmt.Errorf("%s: ProcsList required", spec.Kind)
		}
		if spec.Scale <= 0 {
			return fmt.Errorf("%s: Scale = %g, need > 0", spec.Kind, spec.Scale)
		}
	case KindEvaluate:
		if spec.Scale <= 0 {
			return fmt.Errorf("%s: Scale = %g, need > 0", spec.Kind, spec.Scale)
		}
		if spec.Profile != "" {
			if _, err := ProfileByName(spec.Profile); err != nil {
				return fmt.Errorf("%s: %w", spec.Kind, err)
			}
		}
	case "":
		return fmt.Errorf("missing Kind")
	default:
		return fmt.Errorf("unknown Kind %q", spec.Kind)
	}
	return nil
}

func (s *Session) runSpec(ctx context.Context, spec ExperimentSpec) (Result, error) {
	res := Result{Spec: spec}
	var err error
	switch spec.Kind {
	case KindPingPong:
		res.Times, err = s.PingPong(ctx, spec.Platform, spec.Tool, spec.Sizes)
	case KindBroadcast:
		res.Times, err = s.Broadcast(ctx, spec.Platform, spec.Tool, spec.Procs, spec.Sizes)
	case KindRing:
		res.Times, err = s.Ring(ctx, spec.Platform, spec.Tool, spec.Procs, spec.Sizes)
	case KindGlobalSum:
		res.Times, err = s.GlobalSum(ctx, spec.Platform, spec.Tool, spec.Procs, spec.Sizes)
	case KindApp:
		res.App, err = s.RunApp(ctx, spec.Platform, spec.Tool, spec.App, spec.ProcsList, spec.Scale)
	case KindEvaluate:
		profileName := spec.Profile
		if profileName == "" {
			profileName = "end-user"
		}
		var profile WeightProfile
		profile, err = ProfileByName(profileName) // validated by Submit
		if err == nil {
			res.Evaluation, err = s.Evaluate(ctx, profile, spec.Scale)
		}
	}
	if err != nil {
		return res, fmt.Errorf("tooleval: %s: %w", spec, err)
	}
	return res, nil
}
