// Package montecarlo implements the Monte Carlo integration application
// of the paper's benchmark suite (§3.3: "compute intensive and
// communicates only short messages ... benchmarks the computing capacity
// of the platform and the latency impact of the tool").
//
// The integral evaluated is ∫₀¹ 4/(1+x²) dx = π, the classic
// embarrassingly parallel estimator: every rank draws its share of
// samples from its own deterministic stream and a single global
// summation combines the partial means.
package montecarlo

import (
	"fmt"
	"math"

	"tooleval/internal/mpt"
)

// OpsPerSample is the cost of one sample: RNG advance, the function
// evaluation (divide), and the accumulation — calibrated against the
// single-processor Monte Carlo times of Figures 5-8.
const OpsPerSample = 45.0

// Config sizes the benchmark.
type Config struct {
	Samples int
	Seed    int64
}

// DefaultConfig is the paper-scale workload (~1.7 s on the Alpha at one
// processor).
func DefaultConfig() Config { return Config{Samples: 2_000_000, Seed: 23} }

// Scaled shrinks the sample count.
func (c Config) Scaled(factor float64) Config {
	c.Samples = int(float64(c.Samples) * factor)
	if c.Samples < 1000 {
		c.Samples = 1000
	}
	return c
}

// Result is the integral estimate.
type Result struct {
	Estimate float64
	Samples  int
}

// f is the integrand: ∫₀¹ f = π.
func f(x float64) float64 { return 4 / (1 + x*x) }

// stream is a small deterministic linear congruential generator. Each
// rank owns an independent stream; the sequential reference reproduces
// the union of all rank streams so the parallel estimate is bit-equal.
type stream struct{ s uint64 }

func newStream(seed int64, rank int) *stream {
	return &stream{s: uint64(seed)*0x9E3779B97F4A7C15 + uint64(rank+1)*0xBF58476D1CE4E5B9}
}

func (r *stream) next() float64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return float64(r.s>>11) / float64(1<<53)
}

// shares splits samples across p ranks (first ranks absorb remainders).
func shares(samples, p int) []int {
	out := make([]int, p)
	base, rem := samples/p, samples%p
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// partial computes one rank's sum of f over its share.
func partial(cfg Config, rank, p int) (sum float64, n int) {
	n = shares(cfg.Samples, p)[rank]
	rng := newStream(cfg.Seed, rank)
	for i := 0; i < n; i++ {
		sum += f(rng.next())
	}
	return sum, n
}

// SequentialP computes the reference estimate with the same stream
// partitioning a p-rank run uses, so parallel results can be compared
// exactly.
func SequentialP(cfg Config, p int) (*Result, error) {
	if p < 1 {
		return nil, fmt.Errorf("montecarlo: p must be >= 1, got %d", p)
	}
	var sum float64
	for r := 0; r < p; r++ {
		s, _ := partial(cfg, r, p)
		sum += s
	}
	return &Result{Estimate: sum / float64(cfg.Samples), Samples: cfg.Samples}, nil
}

// Sequential is the single-stream reference (the 1-processor APL point).
func Sequential(cfg Config) (*Result, error) { return SequentialP(cfg, 1) }

// Parallel computes the estimate across all ranks: local sampling, then
// one global summation (the tool's global operation where available, the
// manual gather fallback for PVM — exactly the paper's situation).
func Parallel(ctx *mpt.Ctx, cfg Config) (*Result, error) {
	sum, n := partial(cfg, ctx.Rank(), ctx.Size())
	ctx.Charge(OpsPerSample * float64(n))
	total := []float64{sum}
	if _, err := mpt.SumFloat64(ctx.Comm, total); err != nil {
		return nil, fmt.Errorf("montecarlo reduce: %w", err)
	}
	if ctx.Rank() != 0 {
		return nil, nil
	}
	return &Result{Estimate: total[0] / float64(cfg.Samples), Samples: cfg.Samples}, nil
}

// VerifyAgainstSequential checks the estimate: bit-equal to the
// like-partitioned reference and statistically consistent with π.
func VerifyAgainstSequential(cfg Config, p int, par *Result) error {
	if par == nil {
		return fmt.Errorf("montecarlo: nil parallel result")
	}
	seq, err := SequentialP(cfg, p)
	if err != nil {
		return err
	}
	if math.Abs(par.Estimate-seq.Estimate) > 1e-9 {
		return fmt.Errorf("montecarlo: parallel %v != sequential %v", par.Estimate, seq.Estimate)
	}
	// 4/(1+x²) on [0,1] has variance ≈ 0.413; allow 6 sigma.
	sigma := math.Sqrt(0.413 / float64(cfg.Samples))
	if math.Abs(par.Estimate-math.Pi) > 6*sigma+1e-6 {
		return fmt.Errorf("montecarlo: estimate %v implausibly far from π (σ=%g)", par.Estimate, sigma)
	}
	return nil
}
