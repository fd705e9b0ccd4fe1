// Package apps is the registry of the four SU PDABS applications the
// paper benchmarks in §3.3: JPEG compression, 2D-FFT, Monte Carlo
// integration, and Parallel Sorting by Regular Sampling. Each has a
// sequential reference, a parallel SPMD implementation over the mpt.Comm
// interface, and a verifier that checks the distributed run against the
// reference. ExtendedRegistry adds four more Table 2 members that are
// still built; the rest of the suite is catalogued by name only, in
// paperdata.SuiteTable2.
package apps

import (
	"fmt"

	"tooleval/internal/apps/fft"
	"tooleval/internal/apps/jpeg"
	"tooleval/internal/apps/knapsack"
	"tooleval/internal/apps/montecarlo"
	"tooleval/internal/apps/psearch"
	"tooleval/internal/apps/psrs"
	"tooleval/internal/apps/raytrace"
	"tooleval/internal/apps/vigenere"
	"tooleval/internal/mpt"
)

// App is one runnable benchmark application.
type App struct {
	// Name is the registry key ("jpeg", "fft2d", ...).
	Name string
	// Run executes the parallel implementation on one rank; rank 0
	// returns the result value. scale shrinks the default workload
	// (1.0 = paper scale).
	Run func(ctx *mpt.Ctx, scale float64) (any, error)
	// Verify checks a rank-0 result (for procs ranks at the given scale)
	// against the sequential reference.
	Verify func(value any, procs int, scale float64) error
	// ValidProcs reports whether the application can run on p ranks at
	// the given scale (FFT needs its scaled grid size N to divide by p).
	ValidProcs func(p int, scale float64) bool
}

// Registry returns the benchmarked applications in the paper's order.
func Registry() []App {
	return []App{
		{
			Name: "jpeg",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				res, err := jpeg.Parallel(ctx, jpeg.DefaultConfig().Scaled(scale))
				return res, err
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*jpeg.Result)
				if !ok {
					return fmt.Errorf("jpeg: unexpected result type %T", v)
				}
				return jpeg.VerifyAgainstSequential(jpeg.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: func(p int, _ float64) bool { return p >= 1 },
		},
		{
			Name: "fft2d",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				res, err := fft.Parallel(ctx, fft.DefaultConfig().Scaled(scale))
				return res, err
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*fft.Result)
				if !ok {
					return fmt.Errorf("fft2d: unexpected result type %T", v)
				}
				return fft.VerifyAgainstSequential(fft.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: func(p int, scale float64) bool {
				n := fft.DefaultConfig().Scaled(scale).N
				return p >= 1 && p <= n && n%p == 0
			},
		},
		{
			Name: "montecarlo",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				res, err := montecarlo.Parallel(ctx, montecarlo.DefaultConfig().Scaled(scale))
				return res, err
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*montecarlo.Result)
				if !ok {
					return fmt.Errorf("montecarlo: unexpected result type %T", v)
				}
				return montecarlo.VerifyAgainstSequential(montecarlo.DefaultConfig().Scaled(scale), procs, res)
			},
			ValidProcs: func(p int, _ float64) bool { return p >= 1 },
		},
		{
			Name: "psrs",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				res, err := psrs.Parallel(ctx, psrs.DefaultConfig().Scaled(scale))
				return res, err
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*psrs.Result)
				if !ok {
					return fmt.Errorf("psrs: unexpected result type %T", v)
				}
				return psrs.VerifyAgainstSequential(psrs.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: func(p int, _ float64) bool { return p >= 1 },
		},
	}
}

// anyProcs accepts any processor count at any scale.
func anyProcs(p int, _ float64) bool { return p >= 1 }

// ExtendedRegistry returns the four benchmarked applications plus the
// Table 2 members still built beyond them: branch-and-bound knapsack, ray
// tracing, Vigenère cryptanalysis and parallel text search. No
// experiment, figure or benchmark runs these four; they remain runnable
// through Get until they are deleted like the rest of Table 2.
func ExtendedRegistry() []App {
	ext := []App{
		{
			Name: "knapsack",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				return knapsack.Parallel(ctx, knapsack.DefaultConfig().Scaled(scale))
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*knapsack.Result)
				if !ok {
					return fmt.Errorf("knapsack: unexpected result type %T", v)
				}
				return knapsack.VerifyAgainstSequential(knapsack.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: anyProcs,
		},
		{
			Name: "raytrace",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				return raytrace.Parallel(ctx, raytrace.DefaultConfig().Scaled(scale))
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*raytrace.Result)
				if !ok {
					return fmt.Errorf("raytrace: unexpected result type %T", v)
				}
				return raytrace.VerifyAgainstSequential(raytrace.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: anyProcs,
		},
		{
			Name: "vigenere",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				return vigenere.Parallel(ctx, vigenere.DefaultConfig().Scaled(scale))
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*vigenere.Result)
				if !ok {
					return fmt.Errorf("vigenere: unexpected result type %T", v)
				}
				return vigenere.VerifyAgainstSequential(vigenere.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: anyProcs,
		},
		{
			Name: "psearch",
			Run: func(ctx *mpt.Ctx, scale float64) (any, error) {
				return psearch.Parallel(ctx, psearch.DefaultConfig().Scaled(scale))
			},
			Verify: func(v any, procs int, scale float64) error {
				res, ok := v.(*psearch.Result)
				if !ok {
					return fmt.Errorf("psearch: unexpected result type %T", v)
				}
				return psearch.VerifyAgainstSequential(psearch.DefaultConfig().Scaled(scale), res)
			},
			ValidProcs: anyProcs,
		},
	}
	return append(Registry(), ext...)
}

// Get returns the named application from the extended registry.
func Get(name string) (App, error) {
	for _, a := range ExtendedRegistry() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("apps: unknown application %q", name)
}
