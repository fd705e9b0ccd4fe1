package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NewDetWallTime builds the detwalltime analyzer: inside
// determinism-critical packages, the virtual clock is the only time
// source and seeded *rand.Rand the only randomness. Every sweep must be
// byte-identical across serial, -j and -workers modes, and the
// fastest way to lose that is one stray time.Now() in a cost model or
// one global rand.Intn in a workload generator.
//
// Forbidden in critical packages:
//   - time.Now, time.Since, time.Until, time.After, time.AfterFunc,
//     time.Tick, time.NewTicker, time.NewTimer — wall-clock observation
//     or wall-clock-driven scheduling.
//   - package-level math/rand and math/rand/v2 functions (rand.Intn,
//     rand.Float64, rand.Shuffle, rand.Seed, ...) — the process-global
//     generator is shared, lock-ordered, and unseeded. Constructors
//     (rand.New, rand.NewSource, rand.NewZipf, ...) stay legal: seeded
//     per-rank sources are the sanctioned idiom (mpt.Ctx.Rng).
//   - os.Getpid, os.Getppid — process identity leaking into results.
//
// Configuration:
//
//	-detwalltime.critical  comma-separated import paths under the contract
//	-detwalltime.allow     comma-separated <import path>:<func> call sites
//	                       exempted (e.g. a daemon's uptime counter);
//	                       <func> is "Name" or "Recv.Name"
func NewDetWallTime() *Analyzer {
	a := &Analyzer{
		Name: "detwalltime",
		Doc:  "forbid wall-clock, unseeded randomness, and process identity in determinism-critical packages",
	}
	critical := a.Flags.String("critical", strings.Join(defaultCritical, ","), "comma-separated determinism-critical import paths")
	allow := a.Flags.String("allow", "", "comma-separated pkgpath:func call sites exempt from the contract")
	a.Run = func(pass *Pass) error {
		if !commaSet(*critical)[pass.Pkg.Path()] {
			return nil
		}
		allowed := commaSet(*allow)
		inspectWithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.ObjectOf(sel.Sel)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			why := forbiddenWallTime(obj)
			if why == "" {
				return true
			}
			site := pass.Pkg.Path() + ":" + enclosingFuncName(stack)
			if allowed[site] {
				return true
			}
			pass.Reportf(sel.Pos(), "%s.%s in determinism-critical package %s: %s",
				obj.Pkg().Name(), obj.Name(), pass.Pkg.Path(), why)
			return true
		})
		return nil
	}
	return a
}

// defaultCritical is the set of packages whose outputs feed memoized,
// byte-compared sweep results. The daemons (server, remote, store) are
// deliberately absent: uptime, breaker backoff, and latency measurement
// are wall-clock by design there.
var defaultCritical = []string{
	"tooleval/internal/sim",
	"tooleval/internal/simnet",
	"tooleval/internal/mpt",
	"tooleval/internal/bench",
	"tooleval/internal/core",
}

var wallClockFuncs = map[string]string{
	"Now":       "wall-clock observation; use the engine's virtual clock",
	"Since":     "wall-clock observation; use the engine's virtual clock",
	"Until":     "wall-clock observation; use the engine's virtual clock",
	"After":     "wall-clock-driven scheduling; use virtual-time events",
	"AfterFunc": "wall-clock-driven scheduling; use virtual-time events",
	"Tick":      "wall-clock-driven scheduling; use virtual-time events",
	"NewTicker": "wall-clock-driven scheduling; use virtual-time events",
	"NewTimer":  "wall-clock-driven scheduling; use virtual-time events",
}

func forbiddenWallTime(obj types.Object) (why string) {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return "" // methods (e.g. (*rand.Rand).Intn, (time.Time).Sub) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		return wallClockFuncs[fn.Name()]
	case "math/rand", "math/rand/v2":
		if strings.HasPrefix(fn.Name(), "New") {
			return "" // seeded constructors are the sanctioned idiom
		}
		return "package-global generator is unseeded and shared; use a seeded *rand.Rand (per-rank: mpt.Ctx.Rng)"
	case "os":
		switch fn.Name() {
		case "Getpid", "Getppid":
			return "process identity must not influence simulation results"
		}
	}
	return ""
}

func commaSet(s string) map[string]bool {
	set := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			set[part] = true
		}
	}
	return set
}
