package maya

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"maya/internal/core"
	"maya/internal/trace"
)

// ownedRecipes are two Megatron recipes on one 8xV100 node that
// differ in every rank's trace, for alternating owned captures.
func ownedRecipes(t *testing.T) []Workload {
	t.Helper()
	var ws []Workload
	for _, cfg := range []MegatronConfig{
		{Model: GPT3_2_7B(), NGPUs: 8, GlobalBatch: 64, TP: 2, PP: 2, MicroBatches: 8, ActRecompute: true},
		{Model: GPT3_1_3B(), NGPUs: 8, GlobalBatch: 16, TP: 1, PP: 2, MicroBatches: 2},
	} {
		w, err := NewMegatron(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// sameReport compares two reports but for their wall-clock stages.
func sameReport(t *testing.T, what string, got, want *Report) {
	t.Helper()
	g, w := *got, *want
	g.Stages, w.Stages = StageTimings{}, StageTimings{}
	if !reflect.DeepEqual(&g, &w) {
		t.Errorf("%s: owned capture reports %v, kept %v", what, &g, &w)
	}
}

// TestOwnedCapturesMatchKeptOnes pins the ownership rule of
// captureFor: captures no cache keeps are sealed in place and their
// recordings recycled once the call is done, and that changes no
// answer. Uncached predictions and measurements of two recipes,
// alternating so every capture records into what the one before
// released, a batch whose requests share captures, and an uncached
// FindRecipe answer bit-identically to the same calls on a predictor
// whose capture cache keeps every capture. A later owned capture is
// shown to record into a backing array an earlier one released, and a
// Trace handed out by Capture is shown to keep its ops throughout.
func TestOwnedCapturesMatchKeptOnes(t *testing.T) {
	ctx := context.Background()
	cluster := DGXV100(1)
	owned, err := NewPredictor(cluster, ProfileLLM)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := NewPredictor(cluster, ProfileLLM, WithCaptureCache(NewCaptureCache(256)))
	if err != nil {
		t.Fatal(err)
	}
	recipes := ownedRecipes(t)

	handed, err := owned.Capture(ctx, recipes[0])
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if _, err := handed.WriteTo(&before); err != nil {
		t.Fatal(err)
	}

	for round := range 3 {
		for i, w := range recipes {
			got, err := owned.Predict(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := kept.Predict(ctx, w)
			if err != nil || want.OOM {
				t.Fatalf("%s: %v (oom %t)", w.Name(), err, want != nil && want.OOM)
			}
			sameReport(t, w.Name(), got, want)
			got, err = owned.MeasureActual(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			want, err = kept.MeasureActual(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			sameReport(t, w.Name()+" measured", got, want)
			if t.Failed() {
				t.Fatalf("round %d, recipe %d", round, i)
			}
		}
	}

	// A batch shares one capture between the requests of a recipe and
	// releases it only after the batch.
	var reqs []Request
	for _, w := range recipes {
		reqs = append(reqs, Request{Workload: w}, Request{Workload: w, Options: []PredictOption{WithOracleAnnotation()}},
			Request{Workload: w, Options: []PredictOption{WithPhysicalReplay()}})
	}
	gotBatch, err := owned.PredictBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	wantBatch, err := kept.PredictBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if gotBatch[i].Err != nil || wantBatch[i].Err != nil {
			t.Fatalf("batch request %d: %v, %v", i, gotBatch[i].Err, wantBatch[i].Err)
		}
		sameReport(t, fmt.Sprintf("batch request %d", i), gotBatch[i].Report, wantBatch[i].Report)
	}

	problem := SearchProblem{Model: GPT3_2_7B(), GlobalBatch: 64}
	opts := SearchOptions{Algorithm: "cma", Budget: 24, Seed: 5, EarlyStopWindow: -1, Parallel: 2}
	got, err := owned.FindRecipe(ctx, problem, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := kept.FindRecipe(ctx, problem, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := *got, *want
	a.Elapsed, b.Elapsed = 0, 0
	if !reflect.DeepEqual(&a, &b) {
		t.Errorf("uncached FindRecipe diverged from the cached one:\nstats %+v vs %+v\nbest %+v vs %+v",
			got.Stats, want.Stats, got.Best, want.Best)
	}

	// Recycling, shown: the op arrays of released captures come back
	// as the recordings of later ones. sync.Pool may drop a Put (under
	// -race on purpose), so a few captures get the chance.
	capOpts := owned.captureOptions(owned.settings(nil))
	released := map[*trace.Op]bool{}
	reused := false
	for i := 0; i < 16 && !reused; i++ {
		c, _, err := owned.captureFor(ctx, capOpts, recipes[i%2])
		if err != nil {
			t.Fatal(err)
		}
		for _, wk := range c.Job.Workers {
			reused = reused || released[unsafe.SliceData(wk.Ops)]
			released[unsafe.SliceData(wk.Ops)] = true
		}
		c.Release()
		for _, wk := range c.Job.Workers {
			if wk.Ops != nil {
				t.Fatalf("worker %d keeps %d ops after Release", wk.Rank, len(wk.Ops))
			}
		}
	}
	if !reused {
		t.Error("no owned capture recorded into an array a released one gave back")
	}

	var after bytes.Buffer
	if _, err := handed.WriteTo(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("a Trace handed out by Capture changed while owned captures were recycled")
	}
}

// TestKeepDetachesFromRecordings pins the one copy: a capture kept by
// Keep, or handed out by Predictor.Capture, owns its traces. A Release
// after the copy does nothing, and later captures that record into the
// buffers its recordings went back to leave its bytes alone. Keep on a
// loaded capture copies nothing.
func TestKeepDetachesFromRecordings(t *testing.T) {
	ctx := context.Background()
	pred, err := NewPredictor(DGXV100(1), ProfileLLM)
	if err != nil {
		t.Fatal(err)
	}
	recipes := ownedRecipes(t)
	pipe := &core.Pipeline{Cluster: pred.cluster, Opts: pred.captureOptions(pred.settings(nil))}
	kept, err := pipe.Capture(ctx, recipes[0])
	if err != nil {
		t.Fatal(err)
	}
	kept.Keep()
	handed, err := pred.Capture(ctx, recipes[0])
	if err != nil {
		t.Fatal(err)
	}
	captures := map[string]*core.Capture{"Keep": kept, "Predictor.Capture": handed.cap}
	written := func(c *core.Capture) []byte {
		var b bytes.Buffer
		if _, err := c.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	before := map[string][]byte{}
	for name, c := range captures {
		before[name] = written(c)
		c.Release()
	}
	for i := range 8 {
		c, err := pipe.Capture(ctx, recipes[i%2])
		if err != nil {
			t.Fatal(err)
		}
		c.Release()
	}
	for name, c := range captures {
		if !bytes.Equal(written(c), before[name]) {
			t.Errorf("%s: the kept capture changed after a Release and later captures", name)
		}
	}

	loaded, err := ReadTrace(bytes.NewReader(before["Keep"]))
	if err != nil {
		t.Fatal(err)
	}
	var ops []*trace.Op
	for _, w := range loaded.cap.Job.Workers {
		ops = append(ops, unsafe.SliceData(w.Ops))
	}
	loaded.cap.Keep()
	for i, w := range loaded.cap.Job.Workers {
		if unsafe.SliceData(w.Ops) != ops[i] {
			t.Errorf("Keep copied worker %d of a loaded capture", w.Rank)
		}
	}
	if !bytes.Equal(written(loaded.cap), before["Keep"]) {
		t.Error("Keep changed a loaded capture")
	}
}

// TestConcurrentOwnedPredictions runs uncached predictions from four
// goroutines at once, so owned captures are sealed, replayed and
// released while others record into the recordings they give back;
// every report equals the one a lone prediction gave.
func TestConcurrentOwnedPredictions(t *testing.T) {
	ctx := context.Background()
	pred, err := NewPredictor(DGXV100(1), ProfileLLM)
	if err != nil {
		t.Fatal(err)
	}
	recipes := ownedRecipes(t)
	refs := make([]*Report, len(recipes))
	for i, w := range recipes {
		if refs[i], err = pred.Predict(ctx, w); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, rounds = 4, 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	reports := make([][]*Report, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				rep, err := pred.Predict(ctx, recipes[(g+r)%len(recipes)])
				if err != nil {
					errs[g] = err
					return
				}
				reports[g] = append(reports[g], rep)
			}
		}()
	}
	wg.Wait()
	for g := range goroutines {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for r, rep := range reports[g] {
			sameReport(t, recipes[(g+r)%len(recipes)].Name(), rep, refs[(g+r)%len(recipes)])
		}
	}
}

// TestUncachedPredictCopiesNoTrace bounds what one warm uncached
// Predict allocates against the bytes of the ops it emulates: sealed
// in place and recycled, the traces are not copied, so what is left is
// the estimate plan, the compiled index and the report. A prediction
// that copied every trace at its seal allocated more than the ops
// themselves.
func TestUncachedPredictCopiesNoTrace(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops Puts at random: no pool stays warm")
	}
	ctx := context.Background()
	cfg := MegatronConfig{
		Model: GPT3_18_4B(), NGPUs: 64, GlobalBatch: 128, TP: 8, PP: 4, MicroBatches: 16, ActRecompute: true,
	}
	w, err := NewMegatron(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewPredictor(DGXH100(8), ProfileLLM)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pred.Capture(ctx, w)
	if err != nil || tr.OOM() {
		t.Fatalf("Capture: %v (oom %t)", err, tr != nil && tr.OOM())
	}
	var opBytes uintptr
	for _, wk := range tr.cap.Job.Workers {
		opBytes += uintptr(len(wk.Ops)) * unsafe.Sizeof(trace.Op{})
	}

	// One processor, because sync.Pool parks a Put in a per-P slot
	// other Ps cannot take from, and no collection, which would age
	// the pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	flops := WithModelFLOPs(cfg.Model.TrainFLOPsPerIter(cfg.GlobalBatch))
	for range 2 { // trains the suite, then warms the recordings
		if _, err := pred.Predict(ctx, w, flops); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := pred.Predict(ctx, w, flops); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("an uncached Predict allocates %.2f MB against %.2f MB of emulated ops (%.2fx)",
		float64(allocated)/1e6, float64(opBytes)/1e6, float64(allocated)/float64(opBytes))
	if 4*allocated >= uint64(opBytes) {
		t.Errorf("an uncached Predict allocates %d B, want under a quarter of the %d B of ops it emulates", allocated, opBytes)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool
