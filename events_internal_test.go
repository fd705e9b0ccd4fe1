package tooleval

import (
	"context"
	"errors"
	"testing"
)

// TestSessionHooksWithoutSinkAllocateNothing pins that a session's
// hooks build no event when the call's context carries no sink: every
// resolved cell passes through the Cell hook, so a boxed event there
// would cost an allocation per cell on runs nobody observes.
func TestSessionHooksWithoutSinkAllocateNothing(t *testing.T) {
	ctx := context.Background()
	key := Cell{Platform: "sun-ethernet", Tool: "p4", Bench: "pingpong", Procs: 2, Size: 1024}
	errBoom := errors.New("boom")
	allocs := testing.AllocsPerRun(100, func() {
		sessionHooks.PhaseStart(ctx, "table3")
		sessionHooks.Cell(ctx, key, false, nil)
		sessionHooks.Cell(ctx, key, true, errBoom)
		sessionHooks.PhaseDone(ctx, "table3", nil)
	})
	if allocs != 0 {
		t.Fatalf("hooks without a sink allocated %v times per run, want 0", allocs)
	}
}
