// Package core implements the paper's primary contribution: the
// multi-level evaluation methodology for parallel/distributed computing
// tools (§2). Tools are evaluated from three perspectives — Tool
// Performance Level (TPL, primitive micro-benchmarks), Application
// Performance Level (APL, whole-application timings) and Application
// Development Level (ADL, the usability matrix) — and weight factors
// combine the per-level scores into an overall, user-profile-specific
// evaluation ("By using weight factors, an overall tool evaluation can be
// tailored to take into account the most relevant factors associated with
// certain types of users").
package core

import (
	"fmt"
	"sort"
)

// Level identifies one evaluation perspective.
type Level string

// The three levels of §2. The paper allows additional levels "if
// necessary" (§2); this package measures only these three, and a
// profile weight on any other level is redistributed by Evaluate like
// the weight of a level without measurements.
const (
	TPL Level = "TPL" // Tool Performance Level
	APL Level = "APL" // Application Performance Level
	ADL Level = "ADL" // Application Development Level
)

// Rating is an ADL usability rating (§3.3.1).
type Rating int

// Ratings start at one so the zero value is detectably unset.
const (
	NotSupported       Rating = iota + 1 // NS
	PartiallySupported                   // PS
	WellSupported                        // WS
)

// ParseRating converts the paper's table abbreviations.
func ParseRating(s string) (Rating, error) {
	switch s {
	case "NS":
		return NotSupported, nil
	case "PS":
		return PartiallySupported, nil
	case "WS":
		return WellSupported, nil
	default:
		return 0, fmt.Errorf("core: unknown rating %q (want NS, PS or WS)", s)
	}
}

// String renders the paper's abbreviation.
func (r Rating) String() string {
	switch r {
	case NotSupported:
		return "NS"
	case PartiallySupported:
		return "PS"
	case WellSupported:
		return "WS"
	default:
		return fmt.Sprintf("Rating(%d)", int(r))
	}
}

// Score maps a rating onto [0,1].
func (r Rating) Score() float64 {
	switch r {
	case NotSupported:
		return 0
	case PartiallySupported:
		return 0.5
	case WellSupported:
		return 1
	default:
		return 0
	}
}

// PrimitiveMeasurement is one TPL curve: one tool's times for one
// primitive on one platform over a size sweep.
type PrimitiveMeasurement struct {
	Platform  string
	Primitive string
	Tool      string
	// Sizes are message sizes in bytes (or vector lengths for global
	// operations); TimesMs the measured times.
	Sizes   []int
	TimesMs []float64
}

// AppMeasurement is one APL curve: one tool's execution times for one
// application on one platform over a processor sweep. The JSON tags
// are its form in toolbenchd's job report.
type AppMeasurement struct {
	Platform string    `json:"platform"`
	App      string    `json:"app"`
	Tool     string    `json:"tool"`
	Procs    []int     `json:"procs"`
	Seconds  []float64 `json:"seconds"`
}

// UsabilityMatrix is the ADL assessment: criterion -> tool -> rating.
type UsabilityMatrix map[string]map[string]Rating

// WeightProfile tailors the evaluation to a user type (§2: an end user
// cares about response time, a system manager about utilization, a
// developer about the development interface).
type WeightProfile struct {
	Name string
	// Levels weights the three perspectives; it must sum to 1 (±1e-9).
	Levels map[Level]float64
	// Primitives, Apps and Criteria optionally weight items within a
	// level; unlisted items default to weight 1.
	Primitives map[string]float64
	Apps       map[string]float64
	Criteria   map[string]float64
}

// Validate checks the profile is usable.
func (w WeightProfile) Validate() error {
	if len(w.Levels) == 0 {
		return fmt.Errorf("core: profile %q has no level weights", w.Name)
	}
	// Sum in sorted-key order: float addition is not associative, so
	// summing in (randomized) map order would let the ±1e-9 acceptance
	// band flip between runs for profiles near the boundary.
	levels := make([]Level, 0, len(w.Levels))
	for l := range w.Levels {
		levels = append(levels, l)
	}
	sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
	sum := 0.0
	for _, l := range levels {
		v := w.Levels[l]
		if v < 0 {
			return fmt.Errorf("core: profile %q: negative weight %f for %s", w.Name, v, l)
		}
		sum += v
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		return fmt.Errorf("core: profile %q: level weights sum to %f, want 1", w.Name, sum)
	}
	return nil
}

// EndUserProfile emphasizes application performance — the paper's "user
// would give the response time as the most important performance metric".
func EndUserProfile() WeightProfile {
	return WeightProfile{
		Name:   "end-user",
		Levels: map[Level]float64{TPL: 0.2, APL: 0.6, ADL: 0.2},
	}
}

// DeveloperProfile emphasizes the development interface.
func DeveloperProfile() WeightProfile {
	return WeightProfile{
		Name:   "developer",
		Levels: map[Level]float64{TPL: 0.2, APL: 0.3, ADL: 0.5},
	}
}

// SystemManagerProfile emphasizes raw primitive efficiency (wire and CPU
// utilization — the system manager's throughput view in §2).
func SystemManagerProfile() WeightProfile {
	return WeightProfile{
		Name:   "system-manager",
		Levels: map[Level]float64{TPL: 0.6, APL: 0.3, ADL: 0.1},
	}
}

// Profiles returns the built-in weight profiles.
func Profiles() []WeightProfile {
	return []WeightProfile{EndUserProfile(), DeveloperProfile(), SystemManagerProfile()}
}
