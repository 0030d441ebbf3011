package serve

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// outagePlan is the acceptance scenario: a 2-second total predictor
// outage in the middle of the run.
func outagePlan() *ChaosPlan {
	return &ChaosPlan{Seed: 42, Events: []ChaosEvent{
		{Kind: ChaosOutage, Target: ChaosTargetPredict, FromMS: 2000, UntilMS: 4000},
	}}
}

// acceptanceConfig drives the service at 2x saturation: 4 workers at
// 10ms service absorb one arrival per 2.5ms; arrivals come every
// 1.25ms.
func acceptanceConfig() resilienceConfig {
	return resilienceConfig{
		Plan:         outagePlan(),
		Workers:      4,
		Service:      10 * time.Millisecond,
		Arrival:      1250 * time.Microsecond,
		Duration:     8 * time.Second,
		Deadline:     250 * time.Millisecond,
		Keys:         4,
		Bucket:       100 * time.Millisecond,
		BreakerProbe: 500 * time.Millisecond,
	}
}

// TestResilienceAcceptance is the ISSUE's acceptance criterion: under
// a seeded chaos plan with a 2s predictor outage at 2x saturation,
// the service sheds or degrades rather than queueing past deadlines
// (p99 over accepted responses stays bounded by the deadline), and
// goodput recovers to >= 90% of the pre-fault rate within one breaker
// probe interval of the outage ending.
func TestResilienceAcceptance(t *testing.T) {
	cfg := acceptanceConfig()
	rep, err := runResilience(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Requests == 0 || rep.OK == 0 {
		t.Fatalf("degenerate run: %+v", rep)
	}
	// Overload + outage must surface as shedding and degradation, not
	// as unbounded queueing.
	if rep.Shed+rep.Degraded == 0 {
		t.Fatalf("2x overload shed/degraded nothing: %+v", rep)
	}
	if rep.Degraded == 0 {
		t.Fatalf("outage served no stale results: %+v", rep)
	}
	if rep.BreakerTrips == 0 {
		t.Fatalf("outage never tripped the breaker: %+v", rep)
	}
	if rep.BreakerRecoveries == 0 {
		t.Fatalf("breaker never recovered: %+v", rep)
	}
	// Bounded latency: every accepted response (fresh or degraded)
	// answered within the deadline — nothing rotted in the queue.
	if ms := float64(cfg.Deadline.Milliseconds()); rep.P99ResponseMS > ms {
		t.Errorf("p99 response %.1fms exceeds the %gms deadline", rep.P99ResponseMS, ms)
	}
	// Goodput recovery: back to >= 90% of pre-fault within one probe
	// interval (bucket granularity) of the outage closing.
	if rep.PreFaultGoodputRPS <= 0 {
		t.Fatalf("no pre-fault goodput measured: %+v", rep)
	}
	maxRecovery := (cfg.BreakerProbe + cfg.Bucket).Milliseconds()
	if rep.RecoveryMS < 0 || rep.RecoveryMS > maxRecovery {
		t.Errorf("recovery took %dms, want within %dms", rep.RecoveryMS, maxRecovery)
	}
}

// TestResilienceDeterministic asserts the chaos harness's core
// contract: the same plan seed and config produce a byte-identical
// report on every rerun.
func TestResilienceDeterministic(t *testing.T) {
	run := func() []byte {
		rep, err := runResilience(acceptanceConfig())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("reruns of the same plan diverged:\n%s\n%s", a, b)
	}

	// A different seed with a fractional fault actually changes the
	// injected subset (guards against the seed being ignored).
	frac := func(seed uint64) []byte {
		plan := &ChaosPlan{Seed: seed, Events: []ChaosEvent{
			{Kind: ChaosError, Target: ChaosTargetPredict, FromMS: 1000, UntilMS: 7000, Fraction: 0.2},
		}}
		cfg := acceptanceConfig()
		cfg.Plan = plan
		rep, err := runResilience(cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(rep)
		return raw
	}
	if bytes.Equal(frac(1), frac(2)) {
		t.Error("different plan seeds produced identical fractional-fault runs")
	}
	if !bytes.Equal(frac(1), frac(1)) {
		t.Error("same fractional-fault seed diverged")
	}
}

func TestResilienceValidation(t *testing.T) {
	if _, err := runResilience(resilienceConfig{}); err == nil {
		t.Error("run without a plan accepted")
	}
	bad := resilienceConfig{Plan: &ChaosPlan{Events: []ChaosEvent{{Kind: "meteor"}}}}
	if _, err := runResilience(bad); err == nil {
		t.Error("run with an invalid plan accepted")
	}
}
