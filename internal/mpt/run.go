package mpt

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
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
			rankErrs[rank] = err
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
	if err := foldRankErrors(rankErrs); err != nil {
		return res, err
	}
	if runErr != nil {
		return res, runErr
	}
	return res, nil
}

// rankError is the error a set of ranks failed with alike: one line
// that names the ranks, e.g. "ranks 0-3: …", unwrapping to every rank's
// own error.
type rankError struct {
	ranks []int
	errs  []error
}

func (e *rankError) Error() string {
	var b strings.Builder
	if len(e.ranks) == 1 {
		b.WriteString("rank ")
	} else {
		b.WriteString("ranks ")
	}
	for i := 0; i < len(e.ranks); {
		j := i
		for j+1 < len(e.ranks) && e.ranks[j+1] == e.ranks[j]+1 {
			j++
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(e.ranks[i]))
		if j > i {
			b.WriteByte('-')
			b.WriteString(strconv.Itoa(e.ranks[j]))
		}
		i = j + 1
	}
	return b.String() + ": " + e.errs[0].Error()
}

func (e *rankError) Unwrap() []error { return e.errs }

// foldRankErrors joins the ranks' errors, indexed by rank with nil for
// a rank that succeeded. Errors with identical text fold into one
// rankError, so an error every rank hits alike reads as one line; the
// lines keep the order of each text's lowest rank.
func foldRankErrors(errs []error) error {
	var folded []*rankError
	for rank, err := range errs {
		if err == nil {
			continue
		}
		text := err.Error()
		i := slices.IndexFunc(folded, func(re *rankError) bool { return re.errs[0].Error() == text })
		if i < 0 {
			i = len(folded)
			folded = append(folded, &rankError{})
		}
		folded[i].ranks = append(folded[i].ranks, rank)
		folded[i].errs = append(folded[i].errs, err)
	}
	joined := make([]error, len(folded))
	for i, re := range folded {
		joined[i] = re
	}
	return errors.Join(joined...)
}
