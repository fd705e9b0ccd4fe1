// Package apps is the registry of the four SU PDABS applications the
// paper benchmarks in §3.3: JPEG compression, 2D-FFT, Monte Carlo
// integration, and Parallel Sorting by Regular Sampling. Each has a
// sequential reference, a parallel SPMD implementation over the mpt.Comm
// interface, and a verifier that checks the distributed run against the
// reference. These four are the only runnable applications; the rest of
// the suite is catalogued by name only, in paperdata.SuiteTable2.
package apps

import (
	"fmt"

	"tooleval/internal/apps/fft"
	"tooleval/internal/apps/jpeg"
	"tooleval/internal/apps/montecarlo"
	"tooleval/internal/apps/psrs"
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

// Get returns the named application from Registry.
func Get(name string) (App, error) {
	for _, a := range Registry() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("apps: unknown application %q", name)
}
