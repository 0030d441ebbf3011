package sim_test

import (
	"context"
	"reflect"
	"testing"

	"maya/internal/faults"
	"maya/internal/silicon"
	"maya/internal/sim"
	"maya/internal/trace"
)

// Metamorphic laws over the chain fixtures, pinning the physical and
// fault paths the compiled index feeds; internal/core checks the same
// laws on captured jobs.

// TestPhysicalOptionsWithoutTheirKnobsArePrediction: JitterFrac and
// CommContention are all silicon.PhysicalOptions adds to a prediction,
// so with both zeroed it replays exactly what a prediction does.
func TestPhysicalOptionsWithoutTheirKnobsArePrediction(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		j := sim.ChainFixture(t, seed)
		o := silicon.PhysicalOptions(uint64(seed)+1, trace.Participation(j))
		o.JitterFrac, o.CommContention = 0, 0
		if got, want := run(t, j, o), run(t, j, sim.Options{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: physical options without jitter or contention changed the report:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestEmptyFaultPlanIsNoFault: an empty faults.Plan perturbs nothing.
func TestEmptyFaultPlanIsNoFault(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		j := sim.ChainFixture(t, seed)
		inj, err := (&faults.Plan{}).Injection(j)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := run(t, j, sim.Options{Faults: inj}), run(t, j, sim.Options{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: an empty fault plan changed the report:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

func run(t *testing.T, j *trace.Job, o sim.Options) *sim.Report {
	t.Helper()
	r, err := sim.Run(context.Background(), j, o)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}
