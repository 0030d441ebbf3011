package maya_test

import (
	"bytes"
	"context"
	"testing"

	"maya"
)

// topoWorkload is a 16-rank recipe spanning both nodes of DGXH100(2),
// so cross-island collectives exist for the fabric model to price.
func topoWorkload(t *testing.T) maya.Workload {
	t.Helper()
	w, err := maya.NewMegatron(maya.MegatronConfig{
		Model: maya.GPT3_1_3B(), NGPUs: 16, GlobalBatch: 32,
		TP: 2, PP: 2, MicroBatches: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestTopologySpecValidationAndProvenance(t *testing.T) {
	ctx := context.Background()
	cluster := maya.DGXH100(2)

	if _, err := maya.NewPredictor(cluster, maya.ProfileLLM, maya.WithTopology("mesh:banana")); err == nil {
		t.Fatal("NewPredictor accepted an invalid topology spec")
	}

	pred, err := maya.NewPredictor(cluster, maya.ProfileLLM, maya.WithTopology("oversub:2"))
	if err != nil {
		t.Fatal(err)
	}
	if got := pred.Topology(); got != "oversub:2" {
		t.Fatalf("Topology() = %q, want oversub:2", got)
	}

	// The fabric spec is stamped into captures and survives the
	// serialization round trip.
	tr, err := pred.Capture(ctx, topoWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Topology(); got != "oversub:2" {
		t.Fatalf("trace topology = %q, want oversub:2", got)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := maya.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Topology(); got != "oversub:2" {
		t.Fatalf("reloaded trace topology = %q, want oversub:2", got)
	}
}

// TestSharedCaptureCacheKeepsTopology pins that predictors of
// different fabrics sharing one capture cache each get a capture
// stamped with their own topology: the stamp is serialized with the
// trace, so a capture may only be shared under the same spec.
func TestSharedCaptureCacheKeepsTopology(t *testing.T) {
	ctx := context.Background()
	cc := maya.NewCaptureCache(4)
	w := topoWorkload(t)
	for _, spec := range []string{"flat", "rail", "flat"} {
		pred, err := maya.NewPredictor(maya.DGXH100(2), maya.ProfileLLM,
			maya.WithTopology(spec), maya.WithCaptureCache(cc))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := pred.Capture(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Topology(); got != spec {
			t.Errorf("%s predictor's capture is stamped %q", spec, got)
		}
	}
	if s := cc.Stats(); s.Misses != 2 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 2 misses (one per fabric) and 1 hit", s)
	}
}

func TestCongestionDeterministicAndMonotone(t *testing.T) {
	ctx := context.Background()
	pred, err := maya.NewPredictor(maya.DGXH100(2), maya.ProfileLLM)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pred.Capture(ctx, topoWorkload(t))
	if err != nil {
		t.Fatal(err)
	}

	// Oracle annotation needs no trained suite; the comparison isolates
	// the congestion model.
	plain, err := pred.Simulate(ctx, tr, maya.WithOracleAnnotation())
	if err != nil {
		t.Fatal(err)
	}
	congested, err := pred.Simulate(ctx, tr, maya.WithOracleAnnotation(), maya.WithCongestion())
	if err != nil {
		t.Fatal(err)
	}
	// Link sharing can only slow collectives down (factor >= 1; solo
	// flows replay exactly), and this recipe's data-parallel allreduces
	// overlap on the spine, so contention must show up.
	if congested.CommTime <= plain.CommTime {
		t.Fatalf("congestion did not stretch comm: %v vs %v", congested.CommTime, plain.CommTime)
	}
	if congested.IterTime < plain.IterTime {
		t.Fatalf("congested iteration %v beat uncongested %v", congested.IterTime, plain.IterTime)
	}

	// Bit-identical across repeated runs, and the construction-default
	// form agrees with the per-call option.
	for i := 0; i < 3; i++ {
		again, err := pred.Simulate(ctx, tr, maya.WithOracleAnnotation(), maya.WithCongestion())
		if err != nil {
			t.Fatal(err)
		}
		if again.IterTime != congested.IterTime || again.CommTime != congested.CommTime {
			t.Fatalf("congested run %d diverged: %v/%v vs %v/%v",
				i, again.IterTime, again.CommTime, congested.IterTime, congested.CommTime)
		}
	}
	byDefault, err := maya.NewPredictor(maya.DGXH100(2), maya.ProfileLLM, maya.WithCongestion())
	if err != nil {
		t.Fatal(err)
	}
	if !byDefault.CongestionDefault() {
		t.Fatal("CongestionDefault not set by WithCongestion")
	}
	defRep, err := byDefault.Simulate(ctx, tr, maya.WithOracleAnnotation())
	if err != nil {
		t.Fatal(err)
	}
	if defRep.IterTime != congested.IterTime {
		t.Fatalf("construction-default congestion %v disagrees with per-call %v",
			defRep.IterTime, congested.IterTime)
	}

	// Physical replay ignores the option: silicon contention is already
	// the ground truth there.
	phys, err := pred.Simulate(ctx, tr, maya.WithPhysicalReplay())
	if err != nil {
		t.Fatal(err)
	}
	physCong, err := pred.Simulate(ctx, tr, maya.WithPhysicalReplay(), maya.WithCongestion())
	if err != nil {
		t.Fatal(err)
	}
	if phys.IterTime != physCong.IterTime {
		t.Fatalf("WithCongestion changed physical replay: %v vs %v", physCong.IterTime, phys.IterTime)
	}
}
