package maya_test

import (
	"context"
	"math"
	"testing"

	"maya"
)

func TestPublicQuickstartFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("trains estimators")
	}
	ctx := context.Background()
	cluster := maya.DGXV100(1)
	pred, err := maya.NewPredictor(cluster, maya.ProfileLLM)
	if err != nil {
		t.Fatal(err)
	}
	model := maya.GPT3_1_3B()
	w, err := maya.NewMegatron(maya.MegatronConfig{
		Model: model, NGPUs: 8, GlobalBatch: 32, TP: 2, PP: 2, MicroBatches: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	flops := model.TrainFLOPsPerIter(32)
	rep, err := pred.Predict(ctx, w, maya.WithModelFLOPs(flops), maya.WithDType(maya.BF16))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OOM {
		t.Fatalf("unexpected OOM: %v", rep)
	}
	if rep.IterTime <= 0 || rep.MFU <= 0 || rep.MFU > 1 || rep.PeakMemBytes <= 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
	actual, err := pred.MeasureActual(ctx, w, maya.WithModelFLOPs(flops), maya.WithDType(maya.BF16))
	if err != nil {
		t.Fatal(err)
	}
	e := math.Abs(rep.IterTime.Seconds()-actual.IterTime.Seconds()) / actual.IterTime.Seconds()
	if e > 0.10 {
		t.Fatalf("facade prediction error %.1f%%", e*100)
	}
}

func TestPublicClusterParsing(t *testing.T) {
	for _, spec := range []string{"8xV100", "64xH100", "8xA40"} {
		c, err := maya.ClusterByName(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if c.TotalGPUs() == 0 {
			t.Fatalf("%s: empty cluster", spec)
		}
	}
	if _, err := maya.ClusterByName("3xTPU"); err == nil {
		t.Fatal("bogus spec accepted")
	}
}

func TestPublicSearchFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a search")
	}
	ctx := context.Background()
	pred, err := maya.NewPredictor(maya.DGXV100(1), maya.ProfileLLM)
	if err != nil {
		t.Fatal(err)
	}
	out, err := pred.FindRecipe(ctx,
		maya.SearchProblem{Model: maya.GPT3_1_3B(), GlobalBatch: 32},
		maya.SearchOptions{Algorithm: "cma", Budget: 60, Parallel: 4, Seed: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	if out.Best == nil || out.Best.OOM || out.Best.IterTime <= 0 {
		t.Fatalf("search produced no usable recipe: %+v", out.Best)
	}
	if out.Stats.Executed == 0 {
		t.Fatal("search executed nothing")
	}
}

func TestFindRecipeClusterMismatch(t *testing.T) {
	pred, err := maya.NewPredictor(maya.DGXV100(1), maya.ProfileLLM)
	if err != nil {
		t.Fatal(err)
	}
	_, err = pred.FindRecipe(context.Background(),
		maya.SearchProblem{Model: maya.GPT3_1_3B(), Cluster: maya.DGXH100(4), GlobalBatch: 32},
		maya.SearchOptions{Budget: 10},
	)
	if err == nil {
		t.Fatal("FindRecipe accepted a problem targeting a different cluster")
	}
}

func TestNetworkSimulatorPlugIn(t *testing.T) {
	if testing.Short() {
		t.Skip("trains estimators")
	}
	ctx := context.Background()
	cluster := maya.DGXH100(16) // 128 GPUs: beyond profiled collectives
	pred, err := maya.NewPredictor(cluster, maya.ProfileLLM, maya.WithNetSim())
	if err != nil {
		t.Fatal(err)
	}
	model := maya.GPT3_18_4B()
	w, err := maya.NewMegatron(maya.MegatronConfig{
		Model: model, NGPUs: 128, GlobalBatch: 256, TP: 8, PP: 4, MicroBatches: 8,
		ActRecompute: true, DistOptimizer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pred.Predict(ctx, w,
		maya.WithModelFLOPs(model.TrainFLOPsPerIter(256)), maya.WithDType(maya.BF16))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OOM || rep.IterTime <= 0 {
		t.Fatalf("hyperscale prediction failed: %+v", rep)
	}

	// The per-call option selects the same machinery.
	plain, err := maya.NewPredictor(cluster, maya.ProfileLLM)
	if err != nil {
		t.Fatal(err)
	}
	perCall, err := plain.Predict(ctx, w, maya.WithNetSim(),
		maya.WithModelFLOPs(model.TrainFLOPsPerIter(256)), maya.WithDType(maya.BF16))
	if err != nil {
		t.Fatal(err)
	}
	if perCall.IterTime != rep.IterTime {
		t.Fatalf("WithNetSim variants disagree: ctor %v, per-call %v", rep.IterTime, perCall.IterTime)
	}
}

func TestEstimatorCacheLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("trains estimators")
	}
	ctx := context.Background()
	cache := maya.NewEstimatorCache()
	cluster := maya.DGXV100(1)
	if err := cache.Warm(ctx, cluster, maya.ProfileLLM); err != nil {
		t.Fatalf("Warm: %v", err)
	}
	s := cache.Stats()
	if s.Trained != 1 || s.Entries != 1 {
		t.Fatalf("after Warm: %+v", s)
	}

	// A predictor wired to the warmed cache predicts without training.
	pred, err := maya.NewPredictor(cluster, maya.ProfileLLM, maya.WithEstimatorCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	model := maya.GPT3_1_3B()
	w, err := maya.NewMegatron(maya.MegatronConfig{
		Model: model, NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 2, MicroBatches: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pred.Predict(ctx, w); err != nil {
		t.Fatal(err)
	}
	s = cache.Stats()
	if s.Trained != 1 {
		t.Fatalf("prediction retrained despite warm cache: %+v", s)
	}
	if s.Hits == 0 {
		t.Fatalf("warm prediction did not hit the cache: %+v", s)
	}

	if !cache.Evict(cluster, maya.ProfileLLM) {
		t.Fatal("Evict found nothing")
	}
	if s := cache.Stats(); s.Entries != 0 || s.Evictions != 1 {
		t.Fatalf("after Evict: %+v", s)
	}
}
