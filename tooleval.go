// Package tooleval is a reproduction of the multi-level evaluation
// methodology for parallel/distributed computing (PDC) tools from
// Hariri, Park, Reddy, Subramanyan, Yadav, Fox and Parashar, "Software
// Tool Evaluation Methodology" (NPAC, Syracuse University, 1995).
//
// The package evaluates message-passing tools from three perspectives:
//
//   - Tool Performance Level (TPL): micro-benchmarks of the communication
//     primitives (send/receive, broadcast, ring, global summation);
//   - Application Performance Level (APL): execution times of real
//     applications (JPEG compression, 2D-FFT, Monte Carlo integration,
//     parallel sorting by regular sampling);
//   - Application Development Level (ADL): a usability assessment matrix.
//
// Weight profiles combine the levels into an overall score tailored to a
// user type (end user, developer, system manager).
//
// Because the 1995 systems (Express, p4, PVM) and test-beds (IBM SP-1,
// Alpha/FDDI cluster, SPARCstations on Ethernet/ATM/NYNET) are long gone,
// the package includes faithful discrete-event models of all of them:
// the tools are re-implemented over a simulated transport with the
// mechanisms the originals used (direct streams for p4, daemon routing
// and XDR for PVM, rendezvous plus fixed-size packetization for
// Express), and applications compute real results over real payloads
// while virtual time provides all measurements deterministically.
//
// # Sessions
//
// The unit of use is the [Session]: an isolated evaluation instance
// owning its scheduler, memoization cache, statistics, and tool
// registry, created with functional options:
//
//	sess := tooleval.NewSession(tooleval.WithParallelism(4))
//	ev, err := sess.Evaluate(ctx, tooleval.EndUserProfile(), 1.0)
//
// Concurrent sessions never share state (unless handed one [Cache] or
// [Executor] explicitly), so one process can serve many tenants; [WithMaxCells]
// and [WithMaxVirtualTime] budget each tenant, and [WithExecutor]
// swaps the execution backend entirely. [Session.Stream] runs a whole
// heterogeneous sweep declared as data and yields results in spec
// order as each completes ([Session.Submit] and [Session.SubmitAll]
// are its fail-fast and drain-everything consumers); [EventContext]
// exposes a call's progress as a typed event stream.
package tooleval

import (
	"tooleval/internal/bench"
	"tooleval/internal/core"
	"tooleval/internal/mpt"
	"tooleval/internal/mpt/tools"
	"tooleval/internal/platform"
)

// Re-exported core types. These aliases are the stable public surface;
// the internal packages may reorganize without breaking users.
type (
	// Platform is a simulated 1995 platform/network configuration.
	Platform = platform.Platform
	// Comm is a rank's endpoint on a message-passing tool.
	Comm = mpt.Comm
	// Ctx is what an SPMD application body receives.
	Ctx = mpt.Ctx
	// Message is a delivered message.
	Message = mpt.Message
	// RunConfig parameterizes a simulated run.
	RunConfig = mpt.RunConfig
	// RunResult reports a simulated run.
	RunResult = mpt.RunResult
	// Factory constructs a tool over an environment (for custom tools).
	Factory = mpt.Factory
	// Env is the environment a tool is built over.
	Env = mpt.Env
	// Evaluation is the outcome of the multi-level methodology.
	Evaluation = core.Evaluation
	// WeightProfile tailors an evaluation to a user type.
	WeightProfile = core.WeightProfile
	// PrimitiveMeasurement is TPL input to the methodology.
	PrimitiveMeasurement = core.PrimitiveMeasurement
	// AppMeasurement is APL input to the methodology.
	AppMeasurement = core.AppMeasurement
	// PrimitiveRanking is one Table 4 cell: tools ordered best-first
	// for one primitive on one platform.
	PrimitiveRanking = core.PrimitiveRanking
	// Series is one curve of a regenerated figure.
	Series = bench.Series
	// Table3Result is the regenerated send/receive timing table.
	Table3Result = bench.Table3Result
	// FigureResult is a regenerated figure: one or more series per
	// platform, renderable as text, ASCII chart, or .dat file.
	FigureResult = bench.FigureResult
)

// Wildcards for Recv.
const (
	AnySource = mpt.AnySource
	AnyTag    = mpt.AnyTag
)

// ErrNotSupported reports a primitive a tool does not provide (PVM's
// global operations).
var ErrNotSupported = mpt.ErrNotSupported

// Platforms returns the §3.1 platform catalog.
func Platforms() []Platform { return platform.All() }

// GetPlatform looks up a platform by key ("sun-ethernet", "sun-atm-lan",
// "sun-atm-wan", "alpha-fddi", "sp1-switch", "sp1-ethernet").
func GetPlatform(key string) (Platform, error) { return platform.Get(key) }

// ToolNames returns the evaluated tools: p4, pvm, express.
func ToolNames() []string { return tools.Names() }

// PrimitiveNames maps each communication primitive to its per-tool
// library call names (Table 1).
func PrimitiveNames() map[string]map[string]string { return tools.PrimitiveNames() }

// Experiments lists the table/figure experiment ids in paper order
// (the vocabulary of cmd/toolbench and Session's regeneration methods).
func Experiments() []string { return bench.Experiments() }

// Profiles returns the built-in weight profiles (end-user, developer,
// system-manager).
func Profiles() []WeightProfile { return core.Profiles() }

// EndUserProfile weights application performance highest (§2: response
// time is the end user's metric).
func EndUserProfile() WeightProfile { return core.EndUserProfile() }

// DeveloperProfile weights the development interface highest.
func DeveloperProfile() WeightProfile { return core.DeveloperProfile() }

// SystemManagerProfile weights raw primitive efficiency highest (§2:
// utilization is the system manager's metric).
func SystemManagerProfile() WeightProfile { return core.SystemManagerProfile() }

// RenderEvaluation formats an evaluation as a text report.
func RenderEvaluation(ev *Evaluation) string { return core.RenderEvaluation(ev) }

// MarshalReport renders an evaluation as indented JSON for downstream
// tooling (dashboards, regression tracking).
func MarshalReport(ev *Evaluation) ([]byte, error) { return core.MarshalReport(ev) }
