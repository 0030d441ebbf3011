package serve

import (
	"testing"
	"time"

	"maya"
)

// TestDecideStageOrder pins the one request-decision path on a fake
// clock: shed before breaker, each refusal falling back to the stale
// entry when there is one, and a refused request never touching the
// breaker.
func TestDecideStageOrder(t *testing.T) {
	const workers = 2
	for _, tc := range []struct {
		name               string
		overloaded, open   bool
		stale              bool
		want               verdict
		wantShed           ShedVerdict
		wantBreakerRejects int64
	}{
		{name: "healthy", want: verdictAdmit},
		{name: "healthy ignores stale", stale: true, want: verdictAdmit},
		{name: "shedding, no stale: 429", overloaded: true, want: verdictShed, wantShed: ShedOverload},
		{name: "shedding, stale: degraded", overloaded: true, stale: true, want: verdictDegraded, wantShed: ShedOverload},
		{name: "open, no stale: 503", open: true, want: verdictRejected, wantBreakerRejects: 1},
		{name: "open, stale: degraded", open: true, stale: true, want: verdictDegraded, wantBreakerRejects: 1},
		{name: "shedding and open: shed wins, breaker untouched", overloaded: true, open: true, want: verdictShed, wantShed: ShedOverload},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			c := newControl(100*time.Millisecond, time.Second, 1, time.Second, 4, clk.now)
			rep := &maya.Report{}
			if tc.stale {
				c.settle("k", rep, breakerSuccess)
			}
			if tc.open {
				c.pbreaker.Observe(breakerFailure)
			}
			depth := 1 // just the arrival
			if tc.overloaded {
				// 1s service, 20 in the system over 2 workers: a 9s wait,
				// above target for a full interval.
				c.shed.Observe(time.Second)
				depth = 20
				c.decide("other", depth, workers, 0)
				clk.advance(2 * time.Second)
			}
			clk.advance(500 * time.Millisecond) // stale age; still inside the probe interval
			rejectsBefore := c.pbreaker.Rejected()

			d := c.decide("k", depth, workers, 0)
			if d.verdict != tc.want || d.shed != tc.wantShed {
				t.Fatalf("decision = %+v, want verdict %d shed %v", d, tc.want, tc.wantShed)
			}
			if got := c.pbreaker.Rejected() - rejectsBefore; got != tc.wantBreakerRejects {
				t.Errorf("breaker rejections moved by %d, want %d", got, tc.wantBreakerRejects)
			}
			if tc.want == verdictDegraded && (d.report != rep || d.age <= 0) {
				t.Errorf("degraded decision carries report %p age %v, want the settled report and its age", d.report, d.age)
			}
		})
	}
}

// TestDecideCountsTheArrival pins the depth convention: depth includes
// the arriving request, so a full set of workers plus this arrival
// already queues behind one of them.
func TestDecideCountsTheArrival(t *testing.T) {
	c := newControl(100*time.Millisecond, time.Second, 1, time.Second, 4, newFakeClock().now)
	c.shed.Observe(time.Second)
	if d := c.decide("k", 2, 2, 0); d.est != 0 {
		t.Fatalf("2 in system on 2 workers: est %v, want 0", d.est)
	}
	if d := c.decide("k", 3, 2, 100*time.Millisecond); d.est != 500*time.Millisecond || d.shed != ShedDeadline {
		t.Fatalf("3 in system on 2 workers: %+v, want a 500ms wait shed against the 100ms deadline", d)
	}
}

// TestSettleAbortedReleasesProbe: a half-open probe whose caller was
// cancelled must hand the probe slot to the next arrival.
func TestSettleAbortedReleasesProbe(t *testing.T) {
	clk := newFakeClock()
	c := newControl(100*time.Millisecond, time.Second, 1, time.Second, 4, clk.now)
	c.settle("k", nil, breakerFailure) // trips at threshold 1
	clk.advance(time.Second)
	if d := c.decide("k", 1, 2, 0); d.verdict != verdictAdmit {
		t.Fatalf("probe not admitted after the probe interval: %+v", d)
	}
	if d := c.decide("k", 1, 2, 0); d.verdict != verdictRejected {
		t.Fatalf("second caller admitted while the probe is in flight: %+v", d)
	}
	c.settle("k", nil, breakerAborted)
	if c.degrade.len() != 0 {
		t.Fatal("aborted outcome refreshed the stale cache")
	}
	if d := c.decide("k", 1, 2, 0); d.verdict != verdictAdmit || c.pbreaker.State() != BreakerHalfOpen {
		t.Fatalf("probe slot not released by the aborted outcome: %+v, breaker %v", d, c.pbreaker.State())
	}
}
