package bench

import (
	"strings"
	"testing"
)

func TestTraceRunProducesTimeline(t *testing.T) {
	events, err := sharedH.TraceRun(bgCtx, "sun-ethernet", "pvm", 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 20 {
		t.Fatalf("only %d trace events for a daemon-routed ping-pong", len(events))
	}
	joined := strings.Join(events, "\n")
	for _, want := range []string{"rank0", "rank1", "pvmd0", "park", "wake"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace missing %q:\n%s", want, joined[:min(len(joined), 800)])
		}
	}
}

func TestTraceRunCap(t *testing.T) {
	events, err := sharedH.TraceRun(bgCtx, "sun-ethernet", "p4", 1024, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("cap ignored: %d events", len(events))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
