package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"maya"
	"maya/internal/prand"
)

// backend is the service's dependency boundary: the two predictor
// operations the serving layer actually calls. In production it is
// the shared *maya.Predictor; under a chaos plan it is wrapped by a
// shim that injects faults at exactly this boundary — the
// emulate-the-node / model-the-boundary split applied to the service
// itself, so recovery behavior is measured without a real outage.
type backend interface {
	Predict(ctx context.Context, w maya.Workload, opts ...maya.PredictOption) (*maya.Report, error)
	Capture(ctx context.Context, w maya.Workload, opts ...maya.PredictOption) (*maya.Trace, error)
}

// Chaos targets and kinds.
const (
	ChaosTargetPredict = "predict"
	ChaosTargetCapture = "capture"

	ChaosLatency = "latency" // add latency_ms to the call
	ChaosError   = "error"   // fail the call with ErrChaosInjected
	ChaosOutage  = "outage"  // fail the call with ErrChaosOutage
	ChaosPanic   = "panic"   // panic inside the call
)

// Injected chaos failures, matchable with errors.Is.
var (
	// ErrChaosOutage marks a call failed by an injected dependency
	// outage window.
	ErrChaosOutage = errors.New("chaos: injected predictor outage")
	// ErrChaosInjected marks a call failed by an injected error burst.
	ErrChaosInjected = errors.New("chaos: injected predictor error")
)

// ChaosEvent is one fault window. The window is measured on the chaos
// clock — elapsed time since the server booted (or virtual time in
// the resilience harness) — so a serialized plan replays identically
// against any boot.
type ChaosEvent struct {
	// Kind selects the fault: latency, error, outage or panic.
	Kind string `json:"kind"`
	// Target selects the dependency: predict (default) or capture.
	Target string `json:"target,omitempty"`
	// FromMS/UntilMS bound the window on the chaos clock; UntilMS 0
	// means open-ended.
	FromMS  int64 `json:"from_ms,omitempty"`
	UntilMS int64 `json:"until_ms,omitempty"`
	// LatencyMS is the added latency for kind "latency".
	LatencyMS int64 `json:"latency_ms,omitempty"`
	// Fraction applies the fault to this fraction of calls inside the
	// window, selected deterministically from the plan seed and the
	// call index; 0 (or >= 1) hits every call.
	Fraction float64 `json:"fraction,omitempty"`
}

// contains reports whether the window covers elapsed time t.
func (e *ChaosEvent) contains(t time.Duration) bool {
	ms := t.Milliseconds()
	if ms < e.FromMS {
		return false
	}
	return e.UntilMS == 0 || ms < e.UntilMS
}

// ChaosPlan is a complete, serializable chaos scenario: a seed and an
// ordered list of fault windows. It is plain data, safe for
// concurrent use, and every decision derives from (seed, event index,
// call index, window) — never from unseeded randomness — so the same
// plan replayed against the same call sequence injects the same
// faults.
type ChaosPlan struct {
	Seed   uint64       `json:"seed,omitempty"`
	Events []ChaosEvent `json:"events"`
}

// maxLatencyMS is the longest latency_ms a time.Duration holds.
const maxLatencyMS = math.MaxInt64 / int64(time.Millisecond)

// Validate checks the plan's internal consistency.
func (p *ChaosPlan) Validate() error {
	for i := range p.Events {
		e := &p.Events[i]
		switch e.Kind {
		case ChaosLatency, ChaosError, ChaosOutage, ChaosPanic:
		default:
			return fmt.Errorf("chaos: event %d: unknown kind %q (have latency, error, outage, panic)", i, e.Kind)
		}
		switch e.Target {
		case "", ChaosTargetPredict, ChaosTargetCapture:
		default:
			return fmt.Errorf("chaos: event %d: unknown target %q (have predict, capture)", i, e.Target)
		}
		if e.FromMS < 0 || e.UntilMS < 0 {
			return fmt.Errorf("chaos: event %d: negative window bound", i)
		}
		if e.UntilMS != 0 && e.UntilMS <= e.FromMS {
			return fmt.Errorf("chaos: event %d: until_ms %d <= from_ms %d", i, e.UntilMS, e.FromMS)
		}
		if e.Kind == ChaosLatency && (e.LatencyMS <= 0 || e.LatencyMS > maxLatencyMS) {
			return fmt.Errorf("chaos: event %d: latency event needs latency_ms in (0, %d]", i, maxLatencyMS)
		}
		if e.Fraction < 0 || e.Fraction > 1 {
			return fmt.Errorf("chaos: event %d: fraction %v outside [0, 1]", i, e.Fraction)
		}
	}
	return nil
}

// ReadChaosPlan parses and validates a JSON chaos plan (the -chaos
// flag's file format).
func ReadChaosPlan(r io.Reader) (*ChaosPlan, error) {
	var p ChaosPlan
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("chaos: parsing plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// effect resolves which fault (if any) applies to call number `call`
// against `target` at elapsed time t: the first matching event in
// plan order wins. The fraction gate hashes (seed, event index, call
// index) through SplitMix64, so the affected subset is a pure
// function of the plan and the call sequence.
func (p *ChaosPlan) effect(target string, t time.Duration, call uint64) *ChaosEvent {
	for i := range p.Events {
		e := &p.Events[i]
		et := e.Target
		if et == "" {
			et = ChaosTargetPredict
		}
		if et != target || !e.contains(t) {
			continue
		}
		if e.Fraction > 0 && e.Fraction < 1 {
			rng := prand.New(p.Seed ^ (uint64(i+1) * 0x9E3779B97F4A7C15) ^ (call * 0xBF58476D1CE4E5B9))
			if rng.Float64() >= e.Fraction {
				continue
			}
		}
		return e
	}
	return nil
}

// chaosBackend wraps the real backend with plan-driven fault
// injection: a test-only shim for the cmd/maya-serve -chaos flag and
// the in-process chaos tests. Call indices are per-target atomic
// counters; under single-threaded drivers (the resilience harness,
// sequential tests) the injected sequence is bit-identical across
// runs, and under concurrent load the per-window aggregate behavior
// is still plan-determined.
type chaosBackend struct {
	inner backend
	plan  *ChaosPlan

	// elapsed is the chaos clock (time since boot); overridable by
	// tests to step through windows without sleeping.
	elapsed func() time.Duration

	predictCalls atomic.Uint64
	captureCalls atomic.Uint64
	injected     atomic.Int64 // faults actually applied
}

func newChaosBackend(inner backend, plan *ChaosPlan) *chaosBackend {
	start := time.Now()
	return &chaosBackend{
		inner:   inner,
		plan:    plan,
		elapsed: func() time.Duration { return time.Since(start) },
	}
}

// apply resolves and executes the fault for one call; error kinds
// return their injected error, latency sleeps (honoring ctx), panic
// panics — exercising the service's recovery layers for real.
func (c *chaosBackend) apply(ctx context.Context, target string, call uint64) error {
	e := c.plan.effect(target, c.elapsed(), call)
	if e == nil {
		return nil
	}
	c.injected.Add(1)
	switch e.Kind {
	case ChaosOutage:
		return ErrChaosOutage
	case ChaosError:
		return ErrChaosInjected
	case ChaosPanic:
		panic("chaos: injected predictor panic")
	case ChaosLatency:
		t := time.NewTimer(time.Duration(e.LatencyMS) * time.Millisecond)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func (c *chaosBackend) Predict(ctx context.Context, w maya.Workload, opts ...maya.PredictOption) (*maya.Report, error) {
	if err := c.apply(ctx, ChaosTargetPredict, c.predictCalls.Add(1)); err != nil {
		return nil, err
	}
	return c.inner.Predict(ctx, w, opts...)
}

func (c *chaosBackend) Capture(ctx context.Context, w maya.Workload, opts ...maya.PredictOption) (*maya.Trace, error) {
	if err := c.apply(ctx, ChaosTargetCapture, c.captureCalls.Add(1)); err != nil {
		return nil, err
	}
	return c.inner.Capture(ctx, w, opts...)
}
