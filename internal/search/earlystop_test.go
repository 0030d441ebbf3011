package search

import (
	"context"
	"sort"
	"testing"
)

// TestCountFresh pins which statuses advance the early-stop window:
// freshly resolved non-OOM trials — executed, skipped, dominated —
// and never cached repeats, OOMs or invalids.
func TestCountFresh(t *testing.T) {
	rs := []*Result{
		{Status: StatusExecuted},                   // counts
		{Status: StatusSkipped},                    // counts
		{Status: StatusDominated, Dominated: true}, // counts
		{Status: StatusCached},                     // cached: excluded
		{Status: StatusExecuted, OOM: true},        // OOM: excluded
		{Status: StatusVerdict, OOM: true},         // OOM verdict: excluded
		{Status: StatusInvalid, Invalid: true},     // invalid: excluded
	}
	if got := countFresh(rs); got != 3 {
		t.Fatalf("countFresh = %d, want 3", got)
	}
}

// TestEarlyStopExactWindow replays Options.EarlyStopWindow's
// documented rule over the search's own history — generation by
// generation, cached repeats excluded — and demands the search
// stopped at exactly the replayed point. A drift in either the
// semantics or the generation accounting breaks this test.
func TestEarlyStopExactWindow(t *testing.T) {
	const window = 20
	opts := Options{Algorithm: "random", Budget: 100000, Parallel: 8, Seed: 5, EarlyStopWindow: window}
	out, err := Run(context.Background(), testProblem(), truncEval, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stopped != "early stop: top-5 stable" {
		t.Fatalf("stopped = %q", out.Stopped)
	}
	if out.Stats.Cached == 0 {
		t.Fatal("want cached repeats in the run so their exclusion is exercised")
	}

	seen := make(map[Knobs]*Result)
	topOf := func() []float64 {
		var mfus []float64
		for _, r := range seen {
			if topEligible(r) {
				mfus = append(mfus, r.MFU)
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(mfus)))
		if len(mfus) > topN {
			mfus = mfus[:topN]
		}
		return mfus
	}

	// Generations are population-sized history chunks (the budget was
	// never hit), each closed by one trajectory point.
	pop := population
	stable := 0
	var lastTop []float64
	stoppedAt := -1
	gens := 0
	for pos := 0; pos < len(out.History); pos += pop {
		gen := out.History[pos:min(pos+pop, len(out.History))]
		gens++
		for _, r := range gen {
			if r.Status != StatusCached {
				seen[r.Knobs] = r
			}
		}
		top := topOf()
		if equalTop(top, lastTop) {
			stable += countFresh(gen)
		} else {
			stable = 0
			lastTop = top
		}
		if stable >= window {
			stoppedAt = pos + len(gen)
			break
		}
	}
	if stoppedAt != len(out.History) {
		t.Fatalf("replay stops after %d trials, search stopped after %d", stoppedAt, len(out.History))
	}
	if gens != len(out.Trajectory) {
		t.Fatalf("replayed %d generations, trajectory has %d points", gens, len(out.Trajectory))
	}
}
