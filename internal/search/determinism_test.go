package search

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"maya/internal/framework"
)

// truncEval is syntheticEval extended to honor the domination bound
// the way the real pipeline does: any trial whose (synthetic)
// iteration time exceeds the bound comes back Truncated instead of
// finished.
func truncEval(ctx context.Context, cfg framework.MegatronConfig, bound time.Duration) (EvalResult, error) {
	ev, err := syntheticEval(ctx, cfg, bound)
	if err != nil {
		return ev, err
	}
	if !ev.OOM && bound > 0 && ev.IterTime > bound {
		return EvalResult{Truncated: true}, nil
	}
	return ev, nil
}

// stripElapsed zeroes the only wall-clock-dependent Outcome field so
// outcomes can be compared bit-for-bit.
func stripElapsed(o *Outcome) *Outcome {
	c := *o
	c.Elapsed = 0
	return &c
}

// TestOutcomeIndependentOfParallel is the seed-stability property:
// for any Parallel value and any repetition, a search produces a
// bit-identical Outcome — history order, stats, best, trajectory and
// stop reason — both with and without the domination-abort (TimeLimit)
// path. Run under -race this also exercises the worker pool for data
// races.
func TestOutcomeIndependentOfParallel(t *testing.T) {
	cases := []struct {
		name string
		eval Evaluator
		opts Options
	}{
		{"cma-no-limit", syntheticEval, Options{Algorithm: "cma", Budget: 240, Seed: 3, EarlyStopWindow: -1, DominationSlack: -1}},
		{"cma-truncating", truncEval, Options{Algorithm: "cma", Budget: 240, Seed: 3, EarlyStopWindow: -1}},
		{"random-truncating", truncEval, Options{Algorithm: "random", Budget: 320, Seed: 11, EarlyStopWindow: 20}},
		{"grid-truncating", truncEval, Options{Algorithm: "grid", Budget: 640, Seed: 1, EarlyStopWindow: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Parallel = 1
			base, err := run(context.Background(), testProblem(), tc.eval, opts)
			if err != nil {
				t.Fatalf("Parallel=1: %v", err)
			}
			for _, par := range []int{4, 8, 8} {
				opts.Parallel = par
				got, err := run(context.Background(), testProblem(), tc.eval, opts)
				if err != nil {
					t.Fatalf("Parallel=%d: %v", par, err)
				}
				if !reflect.DeepEqual(stripElapsed(base), stripElapsed(got)) {
					t.Fatalf("Parallel=%d outcome diverged from Parallel=1:\nstats %+v vs %+v\nstopped %q vs %q\nbest %+v vs %+v",
						par, base.Stats, got.Stats, base.Stopped, got.Stopped, base.Best, got.Best)
				}
			}
		})
	}
}

// TestDominationPreservesBest asserts the domination bound never
// truncates a potentially optimal trial: over the full grid — where
// the candidate stream is fixed, so the comparison is exact — the
// found optimum matches a run with domination disabled, and trials
// only move between the Executed, Dominated and Skipped buckets (a
// dominated twin can no longer donate its runtime to a tactic, so
// some skips become executions).
func TestDominationPreservesBest(t *testing.T) {
	opts := Options{Algorithm: "grid", Budget: MegatronSpace().Size(), Parallel: 8, Seed: 5, EarlyStopWindow: -1}
	with, err := run(context.Background(), testProblem(), truncEval, opts)
	if err != nil {
		t.Fatalf("with domination: %v", err)
	}
	opts.DominationSlack = -1
	without, err := run(context.Background(), testProblem(), truncEval, opts)
	if err != nil {
		t.Fatalf("without domination: %v", err)
	}
	if with.Stats.Dominated == 0 {
		t.Fatal("no trials dominated — the abort path never ran")
	}
	if with.Best.Knobs != without.Best.Knobs || with.Best.IterTime != without.Best.IterTime {
		t.Fatalf("domination changed the optimum: %+v vs %+v", with.Best, without.Best)
	}
	got := with.Stats.Executed + with.Stats.Dominated + with.Stats.Skipped
	want := without.Stats.Executed + without.Stats.Skipped
	if got != want {
		t.Fatalf("executed+dominated+skipped = %d, want %d", got, want)
	}
	if with.Stats.Verdict != without.Stats.Verdict || with.Stats.Invalid != without.Stats.Invalid {
		t.Fatalf("domination moved verdict/invalid accounting: %+v vs %+v", with.Stats, without.Stats)
	}
}

// TestVerdictAccountingInvariant asserts how the search accounts what
// its evaluator returns: every OOM answer is a verdict, every other
// finished answer an execution, so Executed+Verdict counts the
// evaluator's finished calls and Verdict its OOMs; a cached repeat of
// an OOM point keeps StatusCached.
func TestVerdictAccountingInvariant(t *testing.T) {
	var calls, ooms atomic.Int64
	counting := func(ctx context.Context, cfg framework.MegatronConfig, bound time.Duration) (EvalResult, error) {
		ev, err := syntheticEval(ctx, cfg, bound)
		calls.Add(1)
		if ev.OOM {
			ooms.Add(1)
		}
		return ev, err
	}
	opts := Options{Algorithm: "random", Budget: 400, Parallel: 8, Seed: 9, EarlyStopWindow: -1, DominationSlack: -1}
	out, err := run(context.Background(), testProblem(), counting, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Verdict == 0 {
		t.Fatal("no verdict trials: the evaluator never answered OOM")
	}
	if int64(out.Stats.Verdict) != ooms.Load() || int64(out.Stats.Executed+out.Stats.Verdict) != calls.Load() {
		t.Fatalf("Executed+Verdict = %d+%d, evaluator answered %d times, %d OOM",
			out.Stats.Executed, out.Stats.Verdict, calls.Load(), ooms.Load())
	}
	for i, r := range out.History {
		if r.OOM && r.Status != StatusVerdict && r.Status != StatusCached && r.Status != StatusSkipped {
			t.Fatalf("history[%d]: OOM trial has status %v", i, r.Status)
		}
	}
}

// TestIncrementalTopMFUMatchesNaive drives the history with a
// randomized result stream — duplicates, OOMs, invalids, dominated
// and zero-MFU entries included — and checks the incrementally
// maintained leaderboard against a full rescan after every put.
func TestIncrementalTopMFUMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	space := MegatronSpace().Enumerate()
	h := newHistory()
	// A knob always resolves to the same result (evaluation is
	// deterministic), so a duplicate put re-puts the original — the
	// invariant the incremental leaderboard's dedup relies on.
	resolved := make(map[Knobs]*Result)
	for i := 0; i < 4000; i++ {
		k := space[rng.Intn(len(space))]
		r, ok := resolved[k]
		if !ok {
			r = &Result{Knobs: k, MFU: float64(rng.Intn(50)) / 50.0}
			switch rng.Intn(6) {
			case 0:
				r.OOM = true
			case 1:
				r.Invalid = true
			case 2:
				r.Dominated = true
				r.MFU = 0
			}
			resolved[k] = r
		}
		h.put(r)
		if got, want := h.topMFU(), naiveTopMFU(h, topN); !equalTop(got, want) {
			t.Fatalf("after %d puts: incremental %v, naive %v", i+1, got, want)
		}
	}
}

// naiveTopMFU recomputes the top-n MFUs by scanning the whole
// history — the reference history.topMFU's incremental bookkeeping is
// tested against.
func naiveTopMFU(h *history, n int) []float64 {
	var mfus []float64
	for _, r := range h.byKnobs {
		if topEligible(r) {
			mfus = append(mfus, r.MFU)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(mfus)))
	if len(mfus) > n {
		mfus = mfus[:n]
	}
	return mfus
}
