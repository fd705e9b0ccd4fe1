package breaker

import (
	"errors"
	"testing"
	"time"
)

var errTest = errors.New("failure (test)")

// TestBreaker drives one breaker per row through a script of steps on
// a fake clock. Each step advances the clock, optionally asks Allow,
// then records a failure or a success, and checks the state after.
func TestBreaker(t *testing.T) {
	type step struct {
		advance   time.Duration
		allow     bool // call Allow before the outcome
		wantAllow bool
		outcome   string        // "fail", "ok" or "" for none
		open      bool          // Open() after the step
		backoff   time.Duration // RetryAt - now after the step, when open
	}
	const s = time.Second
	rows := []struct {
		name                string
		threshold           int
		base, max           time.Duration
		steps               []step
		trips, probes, drop int64
	}{
		{
			name: "trips at the threshold", threshold: 3, base: s, max: 8 * s,
			steps: []step{
				{allow: true, wantAllow: true, outcome: "fail"},
				{allow: true, wantAllow: true, outcome: "fail"},
				{allow: true, wantAllow: true, outcome: "fail", open: true, backoff: s},
			},
			trips: 1,
		},
		{
			name: "one probe per elapsed backoff", threshold: 1, base: s, max: 8 * s,
			steps: []step{
				{allow: true, wantAllow: true, outcome: "fail", open: true, backoff: s},
				{advance: s / 2, allow: true, wantAllow: false, open: true, backoff: s / 2},
				{advance: s / 2, allow: true, wantAllow: true, open: true, backoff: s},
				{allow: true, wantAllow: false, open: true, backoff: s},
			},
			trips: 1, probes: 1, drop: 2,
		},
		{
			name: "doubling capped at max", threshold: 1, base: s, max: 4 * s,
			steps: []step{
				{outcome: "fail", open: true, backoff: s},
				{advance: s, allow: true, wantAllow: true, outcome: "fail", open: true, backoff: 2 * s},
				{advance: 2 * s, allow: true, wantAllow: true, outcome: "fail", open: true, backoff: 4 * s},
				{advance: 4 * s, allow: true, wantAllow: true, outcome: "fail", open: true, backoff: 4 * s},
			},
			trips: 1, probes: 3,
		},
		{
			name: "base above max never shrinks", threshold: 1, base: 20 * s, max: 0,
			steps: []step{
				{outcome: "fail", open: true, backoff: 20 * s},
				{advance: 20 * s, allow: true, wantAllow: true, outcome: "fail", open: true, backoff: 20 * s},
				{advance: 20 * s, allow: true, wantAllow: true, outcome: "fail", open: true, backoff: 20 * s},
			},
			trips: 1, probes: 2,
		},
		{
			name: "ok resets everything", threshold: 2, base: s, max: 8 * s,
			steps: []step{
				{outcome: "fail"},
				{outcome: "ok"},
				{outcome: "fail"}, // the count restarted: one failure is below the threshold
				{outcome: "fail", open: true, backoff: s},
				{advance: s, allow: true, wantAllow: true, outcome: "ok"},
				{allow: true, wantAllow: true},
				{outcome: "fail"},
				{outcome: "fail", open: true, backoff: s}, // backoff restarts at base
			},
			trips: 2, probes: 1,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			b := New(row.threshold, row.base, row.max)
			now := time.Unix(1000, 0)
			for i, st := range row.steps {
				now = now.Add(st.advance)
				if st.allow {
					if got := b.Allow(now); got != st.wantAllow {
						t.Fatalf("step %d: Allow = %v, want %v", i, got, st.wantAllow)
					}
				}
				switch st.outcome {
				case "fail":
					b.Fail(now, errTest)
				case "ok":
					b.OK()
				}
				if b.Open() != st.open {
					t.Fatalf("step %d: Open = %v, want %v", i, b.Open(), st.open)
				}
				if st.open {
					if got := b.RetryAt().Sub(now); got != st.backoff {
						t.Fatalf("step %d: retry in %v, want %v", i, got, st.backoff)
					}
				} else if !b.RetryAt().IsZero() {
					t.Fatalf("step %d: closed circuit has retry time %v", i, b.RetryAt())
				}
			}
			if b.Trips() != row.trips || b.Probes() != row.probes || b.Dropped() != row.drop {
				t.Fatalf("trips/probes/dropped = %d/%d/%d, want %d/%d/%d",
					b.Trips(), b.Probes(), b.Dropped(), row.trips, row.probes, row.drop)
			}
		})
	}
}

// TestBreakerStateAndErr pins the read side: ProbeDue turns true once
// the backoff elapses, and Err holds the last failure until a success.
func TestBreakerStateAndErr(t *testing.T) {
	b := New(1, time.Second, 0)
	now := time.Unix(1000, 0)
	if b.ProbeDue(now) || b.Err() != nil {
		t.Fatal("fresh breaker is probing or has an error")
	}
	b.Fail(now, errTest)
	if b.ProbeDue(now) || !errors.Is(b.Err(), errTest) || b.Failures() != 1 {
		t.Fatalf("tripped: probeDue %v err %v failures %d", b.ProbeDue(now), b.Err(), b.Failures())
	}
	if !b.ProbeDue(now.Add(time.Second)) {
		t.Fatal("backoff elapsed but no probe is due")
	}
	b.OK()
	if b.Open() || b.Err() != nil || b.Failures() != 0 || b.ProbeDue(now.Add(time.Hour)) {
		t.Fatal("OK left state behind")
	}
}
