package maya_test

// Tests of the fingerprinted capture cache: cross-call reuse, LRU
// bounding, single-flight under concurrency (exercised by the CI
// -race job) and sharing between Predict, PredictBatch and Capture.
// Everything annotates with ground truth so no estimator training is
// needed.

import (
	"context"
	"sync"
	"testing"

	"maya"
)

func cachedPredictor(t *testing.T, cc *maya.CaptureCache) (*maya.Predictor, maya.Workload) {
	t.Helper()
	pred, err := maya.NewPredictor(maya.DGXV100(1), maya.ProfileLLM, maya.WithCaptureCache(cc))
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

func TestCaptureCacheReusesAcrossPredictCalls(t *testing.T) {
	ctx := context.Background()
	cc := maya.NewCaptureCache(8)
	pred, w := cachedPredictor(t, cc)

	first, err := pred.Predict(ctx, w, maya.WithOracleAnnotation())
	if err != nil {
		t.Fatal(err)
	}
	second, err := pred.Predict(ctx, w, maya.WithOracleAnnotation())
	if err != nil {
		t.Fatal(err)
	}
	if s := cc.Stats(); s.Misses != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Fatalf("stats after two predicts = %+v, want 1 miss / 1 hit / 1 entry", s)
	}
	// The cached capture must not change the answer, and the reusing
	// call must not report emulation cost it did not pay.
	if first.Stages.Emulate <= 0 {
		t.Error("first predict should carry emulation cost")
	}
	if second.Stages.Emulate != 0 || second.Stages.Collate != 0 {
		t.Errorf("cached predict reports capture stages it skipped: %+v", second.Stages)
	}
	f, s := *first, *second
	f.Stages, s.Stages = maya.StageTimings{}, maya.StageTimings{}
	if f != s {
		t.Errorf("cached prediction diverged:\nfirst:  %+v\nsecond: %+v", f, s)
	}
	// A measurement of the workload replays the same capture (maya
	// predict -actual), so it too reports no capture stages.
	actual, err := pred.MeasureActual(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if s := cc.Stats(); s.Misses != 1 || s.Hits != 2 || actual.Stages.Emulate != 0 || actual.Stages.Collate != 0 {
		t.Fatalf("MeasureActual after Predict: stats %+v, stages %+v; want a hit and no capture stages", s, actual.Stages)
	}

	// A distinct recipe is a distinct key.
	w2, err := maya.NewMegatron(maya.MegatronConfig{
		Model: maya.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 4, PP: 2, MicroBatches: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pred.Predict(ctx, w2, maya.WithOracleAnnotation()); err != nil {
		t.Fatal(err)
	}
	if s := cc.Stats(); s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("stats after distinct recipe = %+v, want 2 misses / 2 entries", s)
	}

	// A different capture seed must not hit the old entry.
	if _, err := pred.Predict(ctx, w, maya.WithOracleAnnotation(), maya.WithSeed(42)); err != nil {
		t.Fatal(err)
	}
	if s := cc.Stats(); s.Misses != 3 {
		t.Fatalf("seeded predict reused an incompatible capture: %+v", s)
	}
}

func TestCaptureCacheSharedByCaptureAndBatch(t *testing.T) {
	ctx := context.Background()
	cc := maya.NewCaptureCache(8)
	pred, w := cachedPredictor(t, cc)

	tr, err := pred.Capture(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	// A batch over the same workload reuses the explicit capture.
	reqs := []maya.Request{
		{Workload: w, Options: []maya.PredictOption{maya.WithOracleAnnotation()}},
		{Workload: w, Options: []maya.PredictOption{maya.WithPhysicalReplay()}},
	}
	results, err := pred.PredictBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.Report.Stages.Emulate != 0 {
			t.Errorf("request %d re-paid emulation despite the cache", i)
		}
	}
	// The whole batch group resolves through one cache lookup (a hit
	// on the explicit Capture's entry).
	s := cc.Stats()
	if s.Misses != 1 || s.Hits < 1 {
		t.Fatalf("stats = %+v, want 1 miss and ≥1 hit", s)
	}
	// Simulating from the explicitly captured trace still agrees with
	// the batch's cached-capture result.
	rep, err := pred.Simulate(ctx, tr, maya.WithOracleAnnotation())
	if err != nil {
		t.Fatal(err)
	}
	a, b := *rep, *results[0].Report
	a.Stages, b.Stages = maya.StageTimings{}, maya.StageTimings{}
	if a != b {
		t.Errorf("trace-simulate and cached-batch reports diverge:\n%+v\n%+v", a, b)
	}
}

// TestBatchLocalSharingSurvivesEvictionPressure pins the layering:
// batch-local capture sharing stays the outer layer, so a tiny cache
// being thrashed by interleaved topologies cannot make one batch
// re-emulate a workload value it already captured.
func TestBatchLocalSharingSurvivesEvictionPressure(t *testing.T) {
	ctx := context.Background()
	cc := maya.NewCaptureCache(1)
	pred, w := cachedPredictor(t, cc)
	w2, err := maya.NewMegatron(maya.MegatronConfig{
		Model: maya.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 4, MicroBatches: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// w and w2 interleaved: with capacity 1 the cache cannot hold
	// both, but each value must still emulate at most once.
	reqs := []maya.Request{
		{Workload: w, Options: []maya.PredictOption{maya.WithOracleAnnotation()}},
		{Workload: w2, Options: []maya.PredictOption{maya.WithOracleAnnotation()}},
		{Workload: w, Options: []maya.PredictOption{maya.WithPhysicalReplay()}},
		{Workload: w2, Options: []maya.PredictOption{maya.WithPhysicalReplay()}},
	}
	results, err := pred.PredictBatch(ctx, reqs, maya.WithBatchConcurrency(1))
	if err != nil {
		t.Fatal(err)
	}
	var emulationsPaid int
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.Report.Stages.Emulate > 0 {
			emulationsPaid++
		}
	}
	if emulationsPaid > 2 {
		t.Fatalf("%d requests paid emulation, want ≤2 (one per distinct workload)", emulationsPaid)
	}
}

func TestCaptureCacheLRUEviction(t *testing.T) {
	ctx := context.Background()
	cc := maya.NewCaptureCache(1)
	pred, w := cachedPredictor(t, cc)
	w2, err := maya.NewMegatron(maya.MegatronConfig{
		Model: maya.GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 2, PP: 4, MicroBatches: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, wl := range []maya.Workload{w, w2, w} {
		if _, err := pred.Predict(ctx, wl, maya.WithOracleAnnotation()); err != nil {
			t.Fatal(err)
		}
	}
	s := cc.Stats()
	if s.Misses != 3 || s.Evictions != 2 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 3 misses / 2 evictions / 1 entry (capacity 1)", s)
	}
	if n := cc.Purge(); n != 1 {
		t.Fatalf("Purge dropped %d entries, want 1", n)
	}
	if s := cc.Stats(); s.Entries != 0 {
		t.Fatalf("entries after purge = %d", s.Entries)
	}
}

// TestCaptureCacheConcurrentSingleFlight drives many concurrent
// predictions of one topology through a shared cache: exactly one
// must pay the capture. The CI -race job runs this under the race
// detector.
func TestCaptureCacheConcurrentSingleFlight(t *testing.T) {
	ctx := context.Background()
	cc := maya.NewCaptureCache(4)
	pred, w := cachedPredictor(t, cc)

	const callers = 8
	reports := make([]*maya.Report, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = pred.Predict(ctx, w, maya.WithOracleAnnotation())
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
	}
	s := cc.Stats()
	if s.Misses != 1 || s.Hits != callers-1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss / %d hits / 1 entry", s, callers-1)
	}
	want := *reports[0]
	want.Stages = maya.StageTimings{}
	for i, r := range reports[1:] {
		got := *r
		got.Stages = maya.StageTimings{}
		if got != want {
			t.Fatalf("caller %d diverged:\n%+v\n%+v", i+1, got, want)
		}
	}
}

func TestFindRecipeSharesCaptureCache(t *testing.T) {
	if testing.Short() {
		t.Skip("search needs a trained suite")
	}
	ctx := context.Background()
	cc := maya.NewCaptureCache(64)
	pred, err := maya.NewPredictor(maya.DGXV100(1), maya.ProfileLLM, maya.WithCaptureCache(cc))
	if err != nil {
		t.Fatal(err)
	}
	problem := maya.SearchProblem{Model: maya.GPT3_1_3B(), GlobalBatch: 32}
	opts := maya.SearchOptions{Algorithm: "grid", Budget: 12, Seed: 7}
	if _, err := pred.FindRecipe(ctx, problem, opts); err != nil {
		t.Fatal(err)
	}
	first := cc.Stats()
	if first.Misses == 0 {
		t.Fatalf("search did not populate the capture cache: %+v", first)
	}
	// Re-running the same search re-evaluates the same topologies:
	// every capture must now be a hit.
	if _, err := pred.FindRecipe(ctx, problem, opts); err != nil {
		t.Fatal(err)
	}
	second := cc.Stats()
	if second.Misses != first.Misses {
		t.Fatalf("second search re-captured: %+v -> %+v", first, second)
	}
	if second.Hits <= first.Hits {
		t.Fatalf("second search did not hit the cache: %+v -> %+v", first, second)
	}
}
