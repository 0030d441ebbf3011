package maya_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"maya"
	"maya/internal/cuda"
)

// bigMegatron is a 64-rank GPT-3 workload whose full (no-dedup)
// emulation takes long enough that a mid-flight cancel lands while
// ranks are still being emulated.
func bigMegatron(t *testing.T) (*maya.Predictor, maya.Workload) {
	t.Helper()
	pred, err := maya.NewPredictor(maya.DGXV100(8), maya.ProfileLLM,
		maya.WithEstimatorCache(maya.NewEstimatorCache()), maya.WithoutDedup())
	if err != nil {
		t.Fatal(err)
	}
	model := maya.GPT3_2_7B()
	w, err := maya.NewMegatron(maya.MegatronConfig{
		Model: model, NGPUs: 64, GlobalBatch: 128, TP: 2, PP: 4, MicroBatches: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pred, w
}

func TestPredictPreCancelledReturnsPromptly(t *testing.T) {
	pred, w := bigMegatron(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	// No oracle option: the call would have to train estimators, and
	// the pre-cancelled ctx must abort before that starts.
	_, err := pred.Predict(ctx, w)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Predict(pre-cancelled): err = %v, want context.Canceled", err)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("pre-cancelled Predict took %v, want immediate return", e)
	}
}

// firstRunSignal wraps a workload and announces the first rank
// starting, so the cancel lands deterministically mid-emulation
// regardless of how many ranks run in parallel.
type firstRunSignal struct {
	maya.Workload
	started chan struct{}
	once    sync.Once
}

func (s *firstRunSignal) Run(rank int, dev cuda.Device) error {
	s.once.Do(func() { close(s.started) })
	return s.Workload.Run(rank, dev)
}

func TestPredictMidFlightCancelReturnsPromptly(t *testing.T) {
	pred, inner := bigMegatron(t)
	w := &firstRunSignal{Workload: inner, started: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Oracle annotation: no estimator training, so the cancel lands
		// inside the 64-rank emulation / simulation itself.
		_, err := pred.Predict(ctx, w, maya.WithOracleAnnotation())
		done <- err
	}()
	<-w.started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Predict(mid-flight cancel): err = %v, want context.Canceled", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Predict did not observe mid-flight cancellation within 15s")
	}
}

func TestMeasureActualPreCancelled(t *testing.T) {
	pred, w := bigMegatron(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pred.MeasureActual(ctx, w); !errors.Is(err, context.Canceled) {
		t.Fatalf("MeasureActual(pre-cancelled): err = %v, want context.Canceled", err)
	}
}

func TestFindRecipePreCancelled(t *testing.T) {
	pred, err := maya.NewPredictor(maya.DGXV100(1), maya.ProfileLLM,
		maya.WithEstimatorCache(maya.NewEstimatorCache()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = pred.FindRecipe(ctx,
		maya.SearchProblem{Model: maya.GPT3_1_3B(), GlobalBatch: 32},
		maya.SearchOptions{Algorithm: "cma", Budget: 500, Parallel: 4, Seed: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("FindRecipe(pre-cancelled): err = %v, want context.Canceled", err)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("pre-cancelled FindRecipe took %v (trained estimators?)", e)
	}
}

// midFlightBudget is a trial budget no search spends within the two
// seconds before TestFindRecipeMidFlightCancelStopsTrials cancels: on
// a 2-core host a warm search runs about 65 000 trials a second.
const midFlightBudget = 10_000_000

func TestFindRecipeMidFlightCancelStopsTrials(t *testing.T) {
	if testing.Short() {
		t.Skip("trains estimators")
	}
	// Shared default cache: the V100 suite is reused across the heavy
	// facade tests.
	pred, err := maya.NewPredictor(maya.DGXV100(1), maya.ProfileLLM)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	type res struct {
		out *maya.SearchOutcome
		err error
	}
	done := make(chan res, 1)
	go func() {
		out, err := pred.FindRecipe(ctx,
			maya.SearchProblem{Model: maya.GPT3_1_3B(), GlobalBatch: 32},
			maya.SearchOptions{Algorithm: "random", Budget: midFlightBudget, Parallel: 4, Seed: 3,
				EarlyStopWindow: -1})
		done <- res{out, err}
	}()
	time.Sleep(2 * time.Second) // let training + some trials run
	cancel()
	select {
	case r := <-done:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("FindRecipe(mid-cancel): err = %v, want context.Canceled", r.err)
		}
		if r.out == nil || r.out.Stopped != "cancelled" {
			t.Fatalf("outcome = %+v, want Stopped == cancelled", r.out)
		}
		if len(r.out.History) >= midFlightBudget {
			t.Fatal("search ran its full budget despite cancellation")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("FindRecipe did not stop after cancel")
	}
}
