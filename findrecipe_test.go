package maya_test

import (
	"context"
	"reflect"
	"testing"

	"maya"
)

// TestFindRecipeDeterministicAcrossParallel pins the worker-affine
// evaluation path end to end: the full pipeline-backed search returns
// a bit-identical outcome for Parallel 1, 4 and 8.
func TestFindRecipeDeterministicAcrossParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("search needs a trained suite")
	}
	ctx := context.Background()
	pred, err := maya.NewPredictor(maya.DGXV100(1), maya.ProfileLLM,
		maya.WithCaptureCache(maya.NewCaptureCache(256)))
	if err != nil {
		t.Fatal(err)
	}
	problem := maya.SearchProblem{Model: maya.GPT3_2_7B(), GlobalBatch: 64}
	opts := maya.SearchOptions{Algorithm: "cma", Budget: 64, Seed: 3, EarlyStopWindow: -1}

	opts.Parallel = 1
	base, err := pred.FindRecipe(ctx, problem, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{4, 8} {
		opts.Parallel = par
		got, err := pred.FindRecipe(ctx, problem, opts)
		if err != nil {
			t.Fatal(err)
		}
		a, b := *base, *got
		a.Elapsed, b.Elapsed = 0, 0
		if !reflect.DeepEqual(&a, &b) {
			t.Fatalf("Parallel=%d diverged from Parallel=1:\nstats %+v vs %+v\nbest %+v vs %+v",
				par, base.Stats, got.Stats, base.Best, got.Best)
		}
	}
}
