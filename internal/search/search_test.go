package search

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
)

func TestSpaceSizeMatchesTable5(t *testing.T) {
	s := MegatronSpace()
	// 4*4*5*3*2*2*2 = 1920 points.
	if s.Size() != 1920 {
		t.Fatalf("space size = %d, want 1920", s.Size())
	}
	if len(s.Enumerate()) != 1920 {
		t.Fatalf("enumeration size mismatch")
	}
}

func TestFromVectorCoversSpace(t *testing.T) {
	s := MegatronSpace()
	if err := quick.Check(func(raw [7]uint16) bool {
		x := make([]float64, 7)
		for i, v := range raw {
			x[i] = float64(v) / 65536.0
		}
		k := s.FromVector(x)
		// Every produced knob value must come from the space.
		return indexOfInt(s.TP, k.TP) >= 0 && indexOfInt(s.PP, k.PP) >= 0 &&
			indexOfInt(s.MicroMult, k.MicroMult) >= 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKnobsVectorRoundTrip(t *testing.T) {
	s := MegatronSpace()
	dims := s.Dims()
	for _, k := range s.Enumerate() {
		x := knobsToVector(s, k, dims)
		if s.FromVector(x) != k {
			t.Fatalf("round trip failed for %v", k)
		}
	}
}

func TestProblemBuildConstraints(t *testing.T) {
	p := Problem{Model: models.GPT3_2_7B(), Cluster: hardware.DGXV100(1), GlobalBatch: 64}
	// TP beyond node size is never viable.
	if _, ok := p.Build(Knobs{TP: 8, PP: 2, MicroMult: 1, VirtualStages: 1}); ok {
		t.Fatal("tp*pp > ngpus accepted")
	}
	cfg, ok := p.Build(Knobs{TP: 2, PP: 2, MicroMult: 2, VirtualStages: 1})
	if !ok {
		t.Fatal("valid knobs rejected")
	}
	if cfg.MicroBatches != 4 { // mult * pp
		t.Fatalf("microbatches = %d", cfg.MicroBatches)
	}
	// Virtual stages collapse to 1 without pipeline parallelism.
	cfg, ok = p.Build(Knobs{TP: 2, PP: 1, MicroMult: 2, VirtualStages: 4})
	if !ok || cfg.VirtualStages != 1 {
		t.Fatalf("pp=1 virtual stages = %d (ok=%t)", cfg.VirtualStages, ok)
	}
}

// syntheticEval scores configs analytically so optimizer behavior can
// be tested quickly: a known optimum plus OOM region.
func syntheticEval(_ context.Context, cfg framework.MegatronConfig, _ time.Duration) (EvalResult, error) {
	// Optimum at tp=2, pp=4; penalty grows with distance.
	score := 1.0
	score += 0.3 * abs(cfg.TP-2)
	score += 0.2 * abs(cfg.PP-4)
	score += 0.05 * abs(cfg.MicroBatches-8)
	if cfg.SeqParallel {
		score -= 0.05
	}
	// No recomputation at high PP without seq parallel: "OOM".
	oom := !cfg.ActRecompute && !cfg.SeqParallel && cfg.PP == 1 && cfg.TP == 1
	mfu := 0.6 / score
	return EvalResult{
		OOM:      oom,
		IterTime: time.Duration(score * float64(time.Second)),
		MFU:      mfu,
	}, nil
}

func abs(v int) float64 {
	if v < 0 {
		return float64(-v)
	}
	return float64(v)
}

func testProblem() Problem {
	return Problem{Model: models.GPT3_2_7B(), Cluster: hardware.DGXV100(2), GlobalBatch: 128}
}

func TestSearchFindsGoodConfigs(t *testing.T) {
	for _, algo := range []string{"cma", "random", "oneplusone", "pso", "twopointsde"} {
		out, err := Run(context.Background(), testProblem(), syntheticEval, Options{
			Algorithm: algo, Budget: 300, Parallel: 8, Seed: 3, EarlyStopWindow: -1,
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if out.Best == nil || out.Best.OOM {
			t.Fatalf("%s: no best", algo)
		}
		// Synthetic optimum is 0.95s (tp2 pp4 mb8 sp); accept within 25%.
		if out.Best.IterTime > 1190*time.Millisecond {
			t.Errorf("%s: best %v (%s) too far from optimum", algo, out.Best.IterTime, out.Best.Knobs)
		}
	}
}

func TestGridFindsExactOptimum(t *testing.T) {
	out, err := Run(context.Background(), testProblem(), syntheticEval, Options{
		Algorithm: "grid", Budget: MegatronSpace().Size(), Parallel: 8, EarlyStopWindow: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	best := out.Best
	if best.Knobs.TP != 2 || best.Knobs.PP != 4 || !best.Knobs.SeqParallel {
		t.Fatalf("grid best = %s", best.Knobs)
	}
	if out.Stopped != "space exhausted" && out.Stopped != "budget exhausted" {
		t.Fatalf("stopped = %q", out.Stopped)
	}
}

func TestCachingAvoidsReevaluation(t *testing.T) {
	var evals atomic.Int64
	counting := func(ctx context.Context, cfg framework.MegatronConfig, bound time.Duration) (EvalResult, error) {
		evals.Add(1)
		return syntheticEval(ctx, cfg, bound)
	}
	out, err := Run(context.Background(), testProblem(), counting, Options{
		Algorithm: "random", Budget: 800, Parallel: 4, Seed: 5, EarlyStopWindow: -1, DisablePruning: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Cached == 0 {
		t.Fatal("800 random samples of a 1920-point space should repeat")
	}
	if int(evals.Load()) != out.Stats.Executed {
		t.Fatalf("evaluator ran %d times, stats say %d", evals.Load(), out.Stats.Executed)
	}
}

func TestPruningSkipsAndPreservesBest(t *testing.T) {
	withPruning, err := Run(context.Background(), testProblem(), syntheticEval, Options{
		Algorithm: "grid", Budget: MegatronSpace().Size(), Parallel: 8, EarlyStopWindow: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	withoutPruning, err := Run(context.Background(), testProblem(), syntheticEval, Options{
		Algorithm: "grid", Budget: MegatronSpace().Size(), Parallel: 8, EarlyStopWindow: -1, DisablePruning: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if withPruning.Stats.Skipped == 0 {
		t.Fatal("grid search with tactics should skip some configs")
	}
	// Fidelity preserved: the found optimum must match.
	if withPruning.Best.IterTime != withoutPruning.Best.IterTime {
		t.Fatalf("pruning changed the optimum: %v vs %v",
			withPruning.Best.IterTime, withoutPruning.Best.IterTime)
	}
	if withPruning.Stats.Executed >= withoutPruning.Stats.Executed {
		t.Fatalf("pruning did not reduce executions: %d vs %d",
			withPruning.Stats.Executed, withoutPruning.Stats.Executed)
	}
}

func TestEarlyStopping(t *testing.T) {
	out, err := Run(context.Background(), testProblem(), syntheticEval, Options{
		Algorithm: "random", Budget: 100000, Parallel: 8, Seed: 5, EarlyStopWindow: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stopped != "early stop: top-5 stable" {
		t.Fatalf("stopped = %q after %d results", out.Stopped, len(out.History))
	}
	if len(out.History) >= 100000 {
		t.Fatal("early stopping never triggered")
	}
}

func TestTrajectoryMonotone(t *testing.T) {
	out, err := Run(context.Background(), testProblem(), syntheticEval, Options{
		Algorithm: "cma", Budget: 200, Parallel: 8, Seed: 9, EarlyStopWindow: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(out.Trajectory); i++ {
		if out.Trajectory[i].BestMFU < out.Trajectory[i-1].BestMFU {
			t.Fatalf("best MFU regressed at %d", i)
		}
		if out.Trajectory[i].UniqueValid < out.Trajectory[i-1].UniqueValid {
			t.Fatalf("unique count regressed at %d", i)
		}
	}
}

func TestCMABeatsRandomOnQuadratic(t *testing.T) {
	// Optimizer-level sanity on a pure continuous objective.
	quad := func(x []float64) float64 {
		s := 0.0
		for i, v := range x {
			d := v - 0.3 - 0.05*float64(i)
			s += d * d
		}
		return s
	}
	runOpt := func(name string) float64 {
		opt, err := newOptimizer(name, MegatronSpace(), 8, 17)
		if err != nil {
			t.Fatal(err)
		}
		best := inf
		for i := 0; i < 40; i++ {
			gen := opt.generation()
			ys := make([]float64, len(gen))
			for j, x := range gen {
				ys[j] = quad(x)
				if ys[j] < best {
					best = ys[j]
				}
			}
			opt.report(gen, ys)
		}
		return best
	}
	cma := runOpt("cma")
	rnd := runOpt("random")
	if cma > rnd {
		t.Fatalf("CMA-ES (%v) should beat random (%v) on a quadratic", cma, rnd)
	}
	if cma > 0.01 {
		t.Fatalf("CMA-ES best %v did not converge", cma)
	}
}

func TestSearchCancellationStopsTrials(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var evals atomic.Int64
	release := make(chan struct{})
	counting := func(ctx context.Context, cfg framework.MegatronConfig, bound time.Duration) (EvalResult, error) {
		evals.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return EvalResult{}, ctx.Err()
		}
		return syntheticEval(ctx, cfg, bound)
	}
	done := make(chan struct{})
	var out *Outcome
	var err error
	go func() {
		defer close(done)
		out, err = Run(ctx, testProblem(), counting, Options{
			Algorithm: "random", Budget: 1000, Parallel: 4, Seed: 1, EarlyStopWindow: -1,
		})
	}()
	// Let a few trials start, then cancel while they are blocked.
	for evals.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("search did not stop after cancel")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: err = %v, want context.Canceled", err)
	}
	if out == nil || out.Stopped != "cancelled" {
		t.Fatalf("outcome = %+v, want Stopped == cancelled", out)
	}
	// No further trials may be issued after cancellation settles.
	settled := evals.Load()
	close(release)
	time.Sleep(20 * time.Millisecond)
	if after := evals.Load(); after != settled {
		t.Fatalf("search kept issuing trials after cancel: %d -> %d", settled, after)
	}
}

func TestSearchPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := Run(ctx, testProblem(), syntheticEval, Options{Algorithm: "random", Budget: 50, Parallel: 2, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out.Stats.Executed != 0 {
		t.Fatalf("pre-cancelled search executed %d trials", out.Stats.Executed)
	}
}

func TestNegativeParallelIsAnError(t *testing.T) {
	built := 0
	factory := func(int) Evaluator { built++; return syntheticEval }
	_, err := RunWorkers(context.Background(), testProblem(), factory,
		Options{Algorithm: "random", Budget: 16, Parallel: -1, Seed: 1})
	if err == nil {
		t.Fatal("Parallel -1: no error")
	}
	if built != 0 {
		t.Fatalf("Parallel -1 built %d evaluators", built)
	}
}

// TestEvaluatorsBoundedByGeneration builds evaluators through a
// counting factory: a search never builds more than one generation
// can run at once, however large Parallel is.
func TestEvaluatorsBoundedByGeneration(t *testing.T) {
	for _, algo := range []string{"cma", "random", "grid", "oneplusone", "pso", "twopointsde"} {
		opt, err := newOptimizer(algo, MegatronSpace(), population, 1)
		if err != nil {
			t.Fatal(err)
		}
		gen := len(opt.generation())
		built := 0
		factory := func(w int) Evaluator {
			if w != built {
				t.Fatalf("%s: factory(%d) called after %d evaluators", algo, w, built)
			}
			built++
			return syntheticEval
		}
		if _, err := RunWorkers(context.Background(), testProblem(), factory,
			Options{Algorithm: algo, Budget: 200, Parallel: 64, Seed: 3, EarlyStopWindow: -1}); err != nil {
			t.Fatal(err)
		}
		if built == 0 || built > gen {
			t.Errorf("%s: built %d evaluators for generations of %d", algo, built, gen)
		}
	}
}
