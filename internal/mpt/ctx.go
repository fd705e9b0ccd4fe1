package mpt

import (
	"math/rand"
	"time"

	"tooleval/internal/platform"
	"tooleval/internal/sim"
)

// Ctx is what an SPMD application body receives: the rank's process, its
// tool endpoint, the host cost model, and a deterministic per-rank random
// source. The simulation moves real data and computes real results; Ctx's
// Charge is how an application converts the operation count of the real
// work it just did into virtual CPU time on the 1995 host.
type Ctx struct {
	P    *sim.Proc
	Comm Comm
	Host platform.Host

	seed int64 // RunConfig.Seed + rank
	rng  *rand.Rand
}

// Rng returns the rank's deterministic random source, seeded with
// RunConfig.Seed plus the rank. It is built on first use, so a body
// that draws no random numbers pays nothing for it.
func (c *Ctx) Rng() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.seed))
	}
	return c.rng
}

// Rank is shorthand for Comm.Rank.
func (c *Ctx) Rank() int { return c.Comm.Rank() }

// Size is shorthand for Comm.Size.
func (c *Ctx) Size() int { return c.Comm.Size() }

// Now returns the current virtual time.
func (c *Ctx) Now() sim.Time { return c.P.Now() }

// Charge advances this rank's virtual clock by the CPU time ops
// operations take on the platform host.
func (c *Ctx) Charge(ops float64) {
	d := c.Host.CostOf(ops)
	if d > 0 {
		c.P.Sleep(d)
	}
}

// ChargeDuration advances this rank's virtual clock by an explicit
// duration (used by cost models that are not op-count based).
func (c *Ctx) ChargeDuration(d time.Duration) {
	if d > 0 {
		c.P.Sleep(d)
	}
}
