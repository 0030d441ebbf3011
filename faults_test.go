package maya_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"maya"
)

func faultsFixture(t *testing.T) (*maya.Predictor, maya.Workload) {
	t.Helper()
	pred, err := maya.NewPredictor(maya.DGXV100(1), maya.ProfileLLM)
	if err != nil {
		t.Fatal(err)
	}
	w, err := maya.NewMegatron(maya.MegatronConfig{
		Model: maya.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pred, w
}

func TestPublicFaultScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("trains estimators")
	}
	ctx := context.Background()
	pred, w := faultsFixture(t)

	base, err := pred.Predict(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if base.Recovery != nil {
		t.Fatal("plain prediction carries a recovery report")
	}

	plan := &maya.FaultPlan{
		Seed:            11,
		CheckpointEvery: 2,
		CheckpointCost:  base.IterTime / 20,
		MTBF:            3 * base.IterTime,
		Detect:          base.IterTime / 2,
		Restore:         base.IterTime / 4,
		Iterations:      12,
	}
	rep, err := pred.Predict(ctx, w, maya.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	rec := rep.Recovery
	if rec == nil {
		t.Fatal("fault prediction returned no recovery report")
	}
	if rec.Iterations != 12 || rec.World != 8 {
		t.Fatalf("recovery shape: %+v", rec)
	}
	if rec.Goodput <= 0 || rec.Goodput > 1 {
		t.Fatalf("goodput = %v", rec.Goodput)
	}

	// The whole path — capture, annotate, simulate, walk — must be
	// deterministic at the facade too.
	again, err := pred.Predict(ctx, w, maya.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Recovery, rec) {
		t.Fatalf("recovery diverged across calls:\n got %+v\nwant %+v", again.Recovery, rec)
	}

	// The plan's CheckpointEvery sets the interval.
	every5 := *plan
	every5.CheckpointEvery = 5
	rep3, err := pred.Predict(ctx, w, maya.WithFaults(&every5))
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Recovery.CheckpointEvery != 5 {
		t.Fatalf("checkpoint interval = %d, want 5", rep3.Recovery.CheckpointEvery)
	}

	// A checkpoint-only plan prices pure checkpoint overhead.
	solo, err := pred.Predict(ctx, w, maya.WithFaults(&maya.FaultPlan{CheckpointEvery: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if solo.Recovery == nil || solo.Recovery.CheckpointEvery != 1 {
		t.Fatalf("checkpoint-only recovery: %+v", solo.Recovery)
	}

	// Physical replay rejects fault plans.
	if _, err := pred.MeasureActual(ctx, w, maya.WithFaults(plan)); err == nil {
		t.Fatal("MeasureActual accepted a fault plan")
	}
}

// stragglerPlan slows rank 5, a rank the default capture's selective
// launch never emulates: only a full capture can carry the plan.
func stragglerPlan() *maya.FaultPlan {
	return &maya.FaultPlan{
		CheckpointEvery: 2,
		Iterations:      4,
		Stragglers:      []maya.FaultStraggler{{Ranks: []int{5}, Factor: 1.5}},
	}
}

// checkFaultSplit checks a plain and a per-call-fault report of the
// faultsFixture workload: each must come from its own capture.
func checkFaultSplit(t *testing.T, plain, faulted *maya.Report) {
	t.Helper()
	if plain.UniqueWorkers != 2 || plain.Recovery != nil {
		t.Errorf("plain report: %d unique workers, recovery %v; want 2 and none", plain.UniqueWorkers, plain.Recovery)
	}
	if faulted.UniqueWorkers != 8 || faulted.Recovery == nil {
		t.Errorf("fault report: %d unique workers, recovery %v; want 8 and a report", faulted.UniqueWorkers, faulted.Recovery)
	}
}

// TestCaptureCacheSeparatesPerCallFaults pins that a per-call
// WithFaults, which forces a full capture, never shares a capture
// cache entry with a plain call of the same workload — whichever of
// the two runs first.
func TestCaptureCacheSeparatesPerCallFaults(t *testing.T) {
	ctx := context.Background()
	for _, faultsFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults-first=%t", faultsFirst), func(t *testing.T) {
			cc := maya.NewCaptureCache(8)
			pred, w := cachedPredictor(t, cc)
			plain := func() (*maya.Report, error) {
				return pred.Predict(ctx, w, maya.WithOracleAnnotation())
			}
			faulted := func() (*maya.Report, error) {
				return pred.Predict(ctx, w, maya.WithOracleAnnotation(), maya.WithFaults(stragglerPlan()))
			}
			first, second := plain, faulted
			if faultsFirst {
				first, second = faulted, plain
			}
			a, err := first()
			if err != nil {
				t.Fatal(err)
			}
			b, err := second()
			if err != nil {
				t.Fatal(err)
			}
			if faultsFirst {
				a, b = b, a
			}
			checkFaultSplit(t, a, b)
			if s := cc.Stats(); s.Misses != 2 || s.Entries != 2 {
				t.Errorf("stats = %+v, want 2 misses / 2 entries", s)
			}
		})
	}
}

// TestPredictBatchSeparatesPerCallFaults is the batch-local twin: a
// plain and a per-call-fault request of one workload value must not
// share the batch's capture.
func TestPredictBatchSeparatesPerCallFaults(t *testing.T) {
	pred, w := faultsFixture(t)
	results, err := pred.PredictBatch(context.Background(), []maya.Request{
		{Workload: w, Options: []maya.PredictOption{maya.WithOracleAnnotation()}},
		{Workload: w, Options: []maya.PredictOption{maya.WithOracleAnnotation(), maya.WithFaults(stragglerPlan())}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
	}
	checkFaultSplit(t, results[0].Report, results[1].Report)
}

func TestPublicFaultPlanParsing(t *testing.T) {
	plan, err := maya.ParseFaultPlan(strings.NewReader(`{
		"seed": 7,
		"checkpoint_every": 10,
		"checkpoint_cost_ns": 30000000000,
		"mtbf_ns": 21600000000000,
		"detect_ns": 30000000000,
		"restore_ns": 120000000000,
		"stragglers": [{"ranks": [3], "factor": 1.3}],
		"failures": [{"rank": 1, "at_ns": 3600000000000}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if plan.CheckpointEvery != 10 || plan.MTBF != 6*time.Hour || len(plan.Stragglers) != 1 {
		t.Fatalf("parsed plan: %+v", plan)
	}
	if _, err := maya.ParseFaultPlan(strings.NewReader(`{"mtbf": "6h"}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}
