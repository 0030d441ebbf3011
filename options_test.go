package maya_test

import (
	"context"
	"fmt"
	"testing"

	"maya"
)

// call is one facade call: a predictor built with ctor, called with
// opts. Every call builds its own predictor, so no test state leaks
// between the calls a check compares.
type call struct {
	ctor []maya.PredictorOption
	opts []maya.PredictOption
}

func built(ctor ...maya.PredictorOption) call { return call{ctor: ctor} }

func (c call) with(opts ...maya.PredictOption) call { c.opts = opts; return c }

// predictor builds c's predictor on the precedence tests' cluster,
// which runs topoWorkload's 16 ranks across both nodes: data-parallel
// allreduces share the spine (congestion shows) and a full capture
// differs from the selective one.
func (c call) predictor(t *testing.T, extra ...maya.PredictorOption) *maya.Predictor {
	t.Helper()
	p, err := maya.NewPredictor(maya.DGXH100(2), maya.ProfileLLM, append(append([]maya.PredictorOption{}, c.ctor...), extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// summary renders what a report says about the settings it ran
// under.
func summary(rep *maya.Report) string {
	s := fmt.Sprintf("iter=%v comm=%v unique=%d/%d", rep.IterTime, rep.CommTime, rep.UniqueWorkers, rep.TotalWorkers)
	if rep.Recovery != nil {
		s += fmt.Sprintf(" recovery=%+v", *rep.Recovery)
	}
	return s
}

// sameReport compares the two calls by the reports run gives them.
func sameReport(run func(context.Context, *maya.Predictor, maya.Workload, ...maya.PredictOption) (*maya.Report, error)) func(*testing.T, call, call) bool {
	return func(t *testing.T, a, b call) bool {
		t.Helper()
		w := topoWorkload(t)
		ra, err := run(context.Background(), a.predictor(t), w, a.opts...)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := run(context.Background(), b.predictor(t), w, b.opts...)
		if err != nil {
			t.Fatal(err)
		}
		return summary(ra) == summary(rb)
	}
}

// sameCapture compares the two calls by whether they share one entry
// of a capture cache both predictors are built with.
func sameCapture(t *testing.T, a, b call) bool {
	t.Helper()
	cc := maya.NewCaptureCache(4)
	w := topoWorkload(t)
	for _, c := range []call{a, b} {
		if _, err := c.predictor(t, maya.WithCaptureCache(cc)).Capture(context.Background(), w, c.opts...); err != nil {
			t.Fatal(err)
		}
	}
	return cc.Stats().Entries == 1
}

func oraclePredict(ctx context.Context, p *maya.Predictor, w maya.Workload, opts ...maya.PredictOption) (*maya.Report, error) {
	return p.Predict(ctx, w, append(opts, maya.WithOracleAnnotation())...)
}

func learnedPredict(ctx context.Context, p *maya.Predictor, w maya.Workload, opts ...maya.PredictOption) (*maya.Report, error) {
	return p.Predict(ctx, w, opts...)
}

func measureActual(ctx context.Context, p *maya.Predictor, w maya.Workload, opts ...maya.PredictOption) (*maya.Report, error) {
	return p.MeasureActual(ctx, w, opts...)
}

// otherStragglerPlan differs from stragglerPlan in every field a
// recovery report shows.
func otherStragglerPlan() *maya.FaultPlan {
	return &maya.FaultPlan{
		CheckpointEvery: 3,
		Iterations:      6,
		Stragglers:      []maya.FaultStraggler{{Ranks: []int{3}, Factor: 2}},
	}
}

// TestOptionPrecedence pins the one precedence rule of the options
// accepted both at construction and per call: a construction default
// carries into every call, and a per-call use overrides it for that
// call only. Settings that add a fault plan also force a full capture
// with its own capture-cache and batch entry, and a predictor built
// with a plan captures every rank even on a call that drops it.
func TestOptionPrecedence(t *testing.T) {
	cases := []struct {
		name     string
		ctor     maya.PredictorOption
		call     maya.PredictOption // the ctor setting, per call
		override maya.PredictOption // a different per-call value; nil when there is none
		same     func(*testing.T, call, call) bool
		full     bool // the setting brings a fault plan, so a full capture
		trains   bool
	}{
		{name: "netsim", ctor: maya.WithNetSim(), call: maya.WithNetSim(),
			same: sameReport(learnedPredict), trains: true},
		{name: "congestion", ctor: maya.WithCongestion(), call: maya.WithCongestion(),
			same: sameReport(oraclePredict)},
		{name: "seed", ctor: maya.WithSeed(42), call: maya.WithSeed(42), override: maya.WithSeed(7),
			same: sameReport(measureActual)},
		{name: "faults", ctor: maya.WithFaults(stragglerPlan()), call: maya.WithFaults(stragglerPlan()),
			override: maya.WithFaults(otherStragglerPlan()), same: sameReport(oraclePredict), full: true},
		{name: "checkpoint", ctor: maya.WithCheckpointEvery(5), call: maya.WithCheckpointEvery(5),
			override: maya.WithCheckpointEvery(3), same: sameReport(oraclePredict), full: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.trains && testing.Short() {
				t.Skip("trains estimators")
			}
			plain, def := built(), built(tc.ctor)
			if tc.same(t, def, plain) {
				t.Fatal("the option changes nothing this test can see")
			}
			if !tc.same(t, def, plain.with(tc.call)) {
				t.Error("the construction default does not carry into a call")
			}
			if tc.override != nil {
				if tc.same(t, def.with(tc.override), def) {
					t.Error("a per-call value does not override the default")
				}
				if !tc.same(t, def.with(tc.override), plain.with(tc.override)) {
					t.Error("a per-call value on a predictor with a default differs from it on one without")
				}
			}
			if tc.full {
				checkFullCapture(t, def, plain.with(tc.call))
			}
		})
	}
}

// checkFullCapture checks a setting that brings a fault plan, as a
// construction default (def) and per call (perCall).
func checkFullCapture(t *testing.T, def, perCall call) {
	t.Helper()
	ctx := context.Background()
	w := topoWorkload(t)
	if sameCapture(t, perCall, built()) {
		t.Error("a call with a plan shares its capture-cache entry with a plain call")
	}

	results, err := perCall.predictor(t).PredictBatch(ctx, []maya.Request{
		{Workload: w, Options: []maya.PredictOption{maya.WithOracleAnnotation()}},
		{Workload: w, Options: append([]maya.PredictOption{maya.WithOracleAnnotation()}, perCall.opts...)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	if plain, faulted := results[0].Report, results[1].Report; plain.UniqueWorkers == plain.TotalWorkers ||
		faulted.UniqueWorkers != faulted.TotalWorkers || faulted.Recovery == nil {
		t.Errorf("batch shares one capture: plain %s, with a plan %s", summary(plain), summary(faulted))
	}

	for name, c := range map[string]call{
		"per call":                 perCall,
		"by default":               def,
		"by default, plan dropped": def.with(maya.WithFaults(nil)),
	} {
		rep, err := oraclePredict(ctx, c.predictor(t), w, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if rep.UniqueWorkers != rep.TotalWorkers {
			t.Errorf("%s: captured %d of %d ranks, want all", name, rep.UniqueWorkers, rep.TotalWorkers)
		}
	}
}

// TestCheckpointMergesInEitherOrder pins how WithCheckpointEvery
// meets a fault plan: it sets the interval of the plan in effect,
// whichever of the two options comes first, at construction or per
// call. A per-call plan replaces the default plan, interval included.
func TestCheckpointMergesInEitherOrder(t *testing.T) {
	plan := stragglerPlan() // CheckpointEvery 2
	cases := []struct {
		name string
		c    call
		want int
	}{
		{"per-call plan, then interval", built().with(maya.WithFaults(plan), maya.WithCheckpointEvery(5)), 5},
		{"per-call interval, then plan", built().with(maya.WithCheckpointEvery(5), maya.WithFaults(plan)), 5},
		{"default plan, then interval", built(maya.WithFaults(plan), maya.WithCheckpointEvery(5)), 5},
		{"default interval, then plan", built(maya.WithCheckpointEvery(5), maya.WithFaults(plan)), 5},
		{"default plan, per-call interval", built(maya.WithFaults(plan)).with(maya.WithCheckpointEvery(5)), 5},
		{"default plan, per-call interval 0", built(maya.WithFaults(plan)).with(maya.WithCheckpointEvery(0)), 0},
		{"default interval, per-call plan", built(maya.WithCheckpointEvery(5)).with(maya.WithFaults(plan)), 2},
		{"per-call interval alone", built().with(maya.WithCheckpointEvery(5)), 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := oraclePredict(context.Background(), tc.c.predictor(t), topoWorkload(t), tc.c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Recovery == nil || rep.Recovery.CheckpointEvery != tc.want {
				t.Fatalf("recovery %+v, want checkpoint interval %d", rep.Recovery, tc.want)
			}
		})
	}
	if plan.CheckpointEvery != 2 {
		t.Fatalf("the caller's plan was mutated: %+v", plan)
	}
}
