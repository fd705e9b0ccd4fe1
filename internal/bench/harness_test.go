package bench

import (
	"context"

	"tooleval/internal/runner"
)

// bgCtx and sharedH serve the ordering/calibration/figure tests: one
// package-wide harness gives repeated sweeps across tests the same
// memoization a long-lived session enjoys, exactly like the old
// process-global runner did — but as an explicit object.
var (
	bgCtx   = context.Background()
	sharedH = NewHarness(runner.New(0), nil)
)

// freshHarness builds an isolated harness with an empty cache (the
// determinism tests must not replay another harness's cells).
func freshHarness(workers int) *Harness {
	return NewHarness(runner.New(workers), nil)
}
