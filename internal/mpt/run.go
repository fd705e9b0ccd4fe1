package mpt

import (
	"errors"
	"fmt"
	"time"

	"tooleval/internal/platform"
	"tooleval/internal/sim"
	"tooleval/internal/simnet"
)

// RunConfig parameterizes one simulated SPMD execution.
type RunConfig struct {
	// Procs is the number of ranks (and stations). Required.
	Procs int
	// Seed feeds the per-rank random sources, Ctx.Rng (rank i uses
	// Seed+i).
	Seed int64
	// Faults optionally wraps the fabric with a fault plan.
	Faults simnet.FaultPlan
	// Trace optionally receives the engine execution trace.
	Trace sim.TraceFunc
}

// RunResult reports one simulated execution.
type RunResult struct {
	// Elapsed is the virtual wall-clock of the application phase: from
	// the harness start barrier to the completion of the slowest rank.
	Elapsed time.Duration
	// PerRank is each rank's own completion time relative to the start
	// barrier.
	PerRank []time.Duration
	// Value is whatever rank 0's body returned.
	Value any
	// NetStats snapshots fabric traffic; LoopStats the intra-host
	// channels.
	NetStats  simnet.Stats
	LoopStats simnet.Stats
}

// Body is one rank's program.
type Body func(*Ctx) (any, error)

// Run executes body on cfg.Procs ranks under the given tool over the
// given platform and returns timing and rank-0's result. The virtual
// clock (never the host clock) provides all timing.
func Run(pf platform.Platform, makeTool Factory, cfg RunConfig, body Body) (*RunResult, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("mpt: RunConfig.Procs = %d, need >= 1", cfg.Procs)
	}
	// Engines are pooled across runs: a benchmark sweep executes
	// hundreds of independent cells, and reusing the event queue and
	// free-list storage keeps the sweep's steady state allocation-free.
	// Reset-on-release guarantees a pooled engine is observationally
	// identical to a fresh one, so memoized results stay deterministic.
	eng := sim.AcquireEngine()
	defer eng.Release()
	if cfg.Trace != nil {
		eng.SetTrace(cfg.Trace)
	}
	var net simnet.Network = pf.NewNetwork(cfg.Procs)
	if cfg.Faults != nil {
		net = simnet.NewFaulty(net, cfg.Faults)
	}
	loop := pf.NewLoopback(cfg.Procs)
	env, err := NewEnv(eng, net, loop, pf.Host, cfg.Procs)
	if err != nil {
		return nil, err
	}
	tool, err := makeTool(env)
	if err != nil {
		return nil, fmt.Errorf("mpt: building tool: %w", err)
	}

	res := &RunResult{PerRank: make([]time.Duration, cfg.Procs)}
	var (
		start    sim.Time
		arrived  int
		gate     sim.WaitQ
		rankErrs = make([]error, cfg.Procs)
	)
	for rank := 0; rank < cfg.Procs; rank++ {
		rank := rank
		eng.Spawn("rank"+itoa(rank), func(p *sim.Proc) {
			comm := tool.NewComm(p, rank)
			ctx := &Ctx{P: p, Comm: comm, Host: pf.Host, seed: cfg.Seed + int64(rank)}
			// Zero-cost start barrier: timing begins when every rank is
			// constructed, so tool setup does not pollute Elapsed.
			arrived++
			if arrived == cfg.Procs {
				start = p.Now()
				gate.WakeAll()
			} else {
				gate.Wait(p, "start-barrier")
			}
			v, err := body(ctx)
			res.PerRank[rank] = (p.Now() - start).Duration()
			if err != nil {
				rankErrs[rank] = fmt.Errorf("rank %d: %w", rank, err)
			}
			if rank == 0 {
				res.Value = v
			}
		})
	}
	runErr := eng.Run()
	res.NetStats = net.Stats()
	res.LoopStats = loop.Stats()
	for _, d := range res.PerRank {
		if d > res.Elapsed {
			res.Elapsed = d
		}
	}
	if err := errors.Join(rankErrs...); err != nil {
		return res, err
	}
	if runErr != nil {
		return res, runErr
	}
	return res, nil
}
