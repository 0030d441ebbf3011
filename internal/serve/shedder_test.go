package serve

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestShedderEWMAAndEstimate(t *testing.T) {
	s := NewShedder(100*time.Millisecond, time.Second)

	// No observations yet: the estimate is zero, so boot-time traffic
	// is never shed on a cold estimator.
	if got := s.EstimateWait(100, 4); got != 0 {
		t.Fatalf("cold estimate = %v, want 0", got)
	}

	s.Observe(40 * time.Millisecond)
	if got := time.Duration(s.avgSvcNS); got != 40*time.Millisecond {
		t.Fatalf("first observation avg = %v, want 40ms", got)
	}
	// EWMA: 40 + 0.125*(120-40) = 50ms.
	s.Observe(120 * time.Millisecond)
	if got := time.Duration(s.avgSvcNS); got != 50*time.Millisecond {
		t.Fatalf("avg after second observation = %v, want 50ms", got)
	}

	// 12 in system, 4 workers: 8 queued, served 4-wide at 50ms each →
	// 100ms wait.
	if got := s.EstimateWait(12, 4); got != 100*time.Millisecond {
		t.Fatalf("estimate = %v, want 100ms", got)
	}
	// At or under the worker count nothing queues.
	if got := s.EstimateWait(4, 4); got != 0 {
		t.Fatalf("estimate with free workers = %v, want 0", got)
	}
}

func TestShedderDeadlineVerdict(t *testing.T) {
	s := NewShedder(100*time.Millisecond, time.Second)
	// A request whose estimated wait exceeds its remaining deadline is
	// doomed: shed immediately, regardless of overload state.
	if got := s.Decide(300*time.Millisecond, 200*time.Millisecond); got != ShedDeadline {
		t.Fatalf("verdict = %v, want deadline", got)
	}
	// Enough deadline left: admitted (no sustained overload yet).
	if got := s.Decide(300*time.Millisecond, 2*time.Second); got != ShedAdmit {
		t.Fatalf("verdict = %v, want admit", got)
	}
	// No deadline known: the deadline rule never fires.
	if got := s.Decide(300*time.Millisecond, 0); got != ShedAdmit {
		t.Fatalf("verdict with no deadline = %v, want admit", got)
	}
}

// TestShedderSustainedOverload exercises the CoDel criterion on an
// injected clock: above-target estimates must persist for the full
// interval before shedding starts, and shedding stops the moment the
// estimate drops back under target.
func TestShedderSustainedOverload(t *testing.T) {
	clk := newBreakerClock()
	s := NewShedder(100*time.Millisecond, time.Second)
	s.now = clk.now

	over := 150 * time.Millisecond
	under := 50 * time.Millisecond

	// A transient burst shorter than the interval is absorbed.
	if got := s.Decide(over, 0); got != ShedAdmit {
		t.Fatalf("first above-target tick = %v, want admit", got)
	}
	clk.advance(500 * time.Millisecond)
	if got := s.Decide(over, 0); got != ShedAdmit {
		t.Fatalf("mid-interval tick = %v, want admit", got)
	}
	clk.advance(400 * time.Millisecond)
	if got := s.Decide(under, 0); got != ShedAdmit {
		t.Fatalf("burst ended = %v, want admit", got)
	}
	if s.Shedding() {
		t.Fatal("shedding after a sub-interval burst")
	}

	// Sustained overload: above target for >= interval flips the state.
	for i := 0; i < 3; i++ {
		if got := s.Decide(over, 0); got != ShedAdmit {
			t.Fatalf("tick %d before interval elapsed = %v, want admit", i, got)
		}
		clk.advance(400 * time.Millisecond)
	}
	if got := s.Decide(over, 0); got != ShedOverload {
		t.Fatalf("verdict after sustained overload = %v, want overload", got)
	}
	if !s.Shedding() {
		t.Fatal("Shedding() false while shedding")
	}
	// Still above target: keeps shedding without waiting again.
	clk.advance(10 * time.Millisecond)
	if got := s.Decide(over, 0); got != ShedOverload {
		t.Fatal("shedding state did not persist above target")
	}

	// Estimate back under target: shedding clears immediately.
	if got := s.Decide(under, 0); got != ShedAdmit {
		t.Fatalf("verdict after recovery = %v, want admit", got)
	}
	if s.Shedding() {
		t.Fatal("shedding did not clear when the estimate recovered")
	}
}

// TestShedOverHTTP drives the deadline-aware shed path end to end: a
// request whose estimated queue wait exceeds its deadline_ms answers
// 429 with Retry-After and X-Maya-Shed before touching the queue —
// and the same doomed request answers a degraded 200 instead when its
// identity has a stale result.
func TestShedOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.Workers = 1 })

	// A healthy request seeds the degrade cache for its identity.
	resp, raw := postJSON(t, ts.URL+"/v1/predict", smallSpec(), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup predict: %d (%s)", resp.StatusCode, raw)
	}
	// Make the service look expensive (10s per prediction) and occupy
	// the only worker, so any queued arrival faces a hopeless wait.
	s.shed.mu.Lock()
	s.shed.avgSvcNS = float64((10 * time.Second).Nanoseconds())
	s.shed.mu.Unlock()
	release := make(chan struct{})
	var relOnce sync.Once
	releaseHolder := func() { relOnce.Do(func() { close(release) }) }
	defer releaseHolder()
	s.testGate = func() { <-release }
	holder := smallSpec()
	holder.MicroBatches = 4
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		postJSON(t, ts.URL+"/v1/predict", holder, nil)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.adm.Depth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// An uncached identity with a tight deadline: shed with 429,
	// Retry-After from the wait estimate, verdict in X-Maya-Shed.
	doomed := smallSpec()
	doomed.MicroBatches = 8
	doomed.DeadlineMS = 500
	resp, raw = postJSON(t, ts.URL+"/v1/predict", doomed, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("doomed request status = %d, want 429 (%s)", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Maya-Shed"); got != "deadline" {
		t.Errorf("X-Maya-Shed = %q, want deadline", got)
	}
	if got := resp.Header.Get("Retry-After"); got != "10" {
		t.Errorf("Retry-After = %q, want 10 (the 10s wait estimate)", got)
	}

	// The cached identity with the same tight deadline degrades to a
	// stale 200 instead.
	cached := smallSpec()
	cached.DeadlineMS = 500
	resp, raw = postJSON(t, ts.URL+"/v1/predict", cached, nil)
	var res PredictResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !res.Degraded || res.Report == nil {
		t.Fatalf("cached doomed request: status %d, degraded %v (%s)", resp.StatusCode, res.Degraded, raw)
	}

	if got := s.metrics.Shed.Load(); got != 2 {
		t.Errorf("shed counter = %d, want 2", got)
	}
	if got := s.metrics.QueueWaitAtReject.total.Load(); got != 2 {
		t.Errorf("queue-wait-at-reject samples = %d, want 2", got)
	}
	if got := s.metrics.Degraded.Load(); got != 1 {
		t.Errorf("degraded counter = %d, want 1", got)
	}
	releaseHolder()
	<-holderDone
}

func TestRetryAfterS(t *testing.T) {
	cases := []struct {
		est  time.Duration
		want int
	}{
		{0, 1},
		{200 * time.Millisecond, 1},
		{1100 * time.Millisecond, 2},
		{5 * time.Second, 5},
	}
	for _, c := range cases {
		if got := retryAfterS(c.est); got != c.want {
			t.Errorf("retryAfterS(%v) = %d, want %d", c.est, got, c.want)
		}
	}
}
