package experiments

// Configuration-search experiments: Fig. 11 (end-to-end search
// runtime and found-config quality), Fig. 15 (trial status
// breakdown), Fig. 16 (search-algorithm comparison), Table 6
// (per-stage runtime with and without optimizations) and Table 10
// (pruning-tactic coverage).

import (
	"context"
	"fmt"
	"time"

	"maya/internal/estimator"
	"maya/internal/search"
)

func init() {
	register("fig11", fig11)
	register("fig15", fig15)
	register("fig16", fig16)
	register("table6", table6)
	register("table10", table10)
}

// memoSearch runs (and memoizes under key) one FindRecipe search of
// the setup's recipe space.
func (e *Env) memoSearch(ctx context.Context, key string, setup setupSpec, sopt search.Options) (*search.Outcome, error) {
	v, err := e.memo(key, func() (any, error) {
		pred, err := e.predictor(setup.cluster, estimator.ProfileLLM, false)
		if err != nil {
			return nil, err
		}
		return pred.FindRecipe(ctx, setup.problem(), sopt)
	})
	if err != nil {
		return nil, err
	}
	return v.(*search.Outcome), nil
}

// searchOutcome is the setup's (memoized) CMA-ES search.
func (e *Env) searchOutcome(ctx context.Context, setup setupSpec) (*search.Outcome, error) {
	return e.memoSearch(ctx, "search/"+setup.name, setup, search.Options{
		Algorithm: "cma", Budget: e.Scale.pick(320, 2000), Parallel: 8, Seed: 7,
	})
}

// gridOptimum finds the setup's true predicted optimum by exhaustive
// grid (with caching and pruning, like the paper's reference run).
// The grid's order ignores the seed, so fig11 and fig16 share it.
func (e *Env) gridOptimum(ctx context.Context, setup setupSpec) (*search.Outcome, error) {
	return e.memoSearch(ctx, "grid/"+setup.name, setup, search.Options{
		Algorithm: "grid", Budget: search.MegatronSpace().Size(), Parallel: 8, Seed: 7,
		EarlyStopWindow: -1, // grid must see everything
	})
}

func fig11(ctx context.Context, e *Env) (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "Configuration search: runtime and normalized cost vs grid optimum",
		Header: []string{"setup", "search time", "trials", "best recipe", "best iter", "grid-optimal iter", "norm cost"},
	}
	for _, setup := range setups() {
		out, err := e.searchOutcome(ctx, setup)
		if err != nil {
			return nil, err
		}
		grid, err := e.gridOptimum(ctx, setup)
		if err != nil {
			return nil, err
		}
		norm := float64(out.Best.IterTime) / float64(grid.Best.IterTime)
		t.Rows = append(t.Rows, []string{
			setup.name,
			out.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%d exec/%d total", out.Stats.Executed+out.Stats.Verdict+out.Stats.Dominated, len(out.History)),
			out.Best.Knobs.String(),
			dur2s(out.Best.IterTime),
			dur2s(grid.Best.IterTime),
			fmt.Sprintf("%.3f", norm),
		})
		t.claim("norm_cost/"+setup.name, norm)
	}
	t.Notes = append(t.Notes, "paper: search completes under an hour per setup and lands within a few % of the grid optimum")
	return t, nil
}

func fig15(ctx context.Context, e *Env) (*Table, error) {
	t := &Table{
		ID:     "fig15",
		Title:  "Trial status breakdown during configuration search",
		Header: []string{"setup", "executed", "verdict", "dominated", "cached", "skipped", "invalid", "skipped frac"},
	}
	for _, setup := range setups() {
		out, err := e.searchOutcome(ctx, setup)
		if err != nil {
			return nil, err
		}
		s := out.Stats
		// "Resolved" means the trial ran the pipeline in some form:
		// full execution, capture-verdict OOM, domination abort, or a
		// tactic skip. The skip fraction keeps its pre-fast-path
		// denominator (Executed then included verdicts and dominated
		// trials) so the paper comparison holds.
		resolved := s.Executed + s.Verdict + s.Dominated + s.Skipped
		frac := 0.0
		if resolved > 0 {
			frac = float64(s.Skipped) / float64(resolved)
		}
		t.Rows = append(t.Rows, []string{
			setup.name, fmt.Sprint(s.Executed), fmt.Sprint(s.Verdict), fmt.Sprint(s.Dominated),
			fmt.Sprint(s.Cached), fmt.Sprint(s.Skipped), fmt.Sprint(s.Invalid), pct(frac),
		})
		// Every trial lands in exactly one status.
		t.claim("unaccounted/"+setup.name, float64(len(out.History)-(resolved+s.Cached+s.Invalid)))
	}
	t.Notes = append(t.Notes, "paper: pruning skips 20-30% of configurations")
	return t, nil
}

func fig16(ctx context.Context, e *Env) (*Table, error) {
	t := &Table{
		ID:     "fig16",
		Title:  "Search algorithms: best MFU vs unique valid configs sampled",
		Header: []string{"setup", "algorithm", "@25", "@50", "@100", "@200", "final MFU", "final iter"},
	}
	all := setups()
	algos := []string{"cma", "oneplusone", "pso", "twopointsde", "random", "grid"}
	budget := e.Scale.pick(140, 2000)
	for _, setup := range []setupSpec{all[0], all[3]} {
		// How close the best sampling algorithm gets to the exhaustive
		// grid's optimum (grid runs last) on a fraction of its budget.
		var sampled float64
		for _, algo := range algos {
			var out *search.Outcome
			var err error
			if algo == "grid" {
				out, err = e.gridOptimum(ctx, setup)
			} else {
				out, err = e.memoSearch(ctx, fmt.Sprintf("fig16/%s/%s", setup.name, algo), setup,
					search.Options{Algorithm: algo, Budget: budget, Parallel: 8, Seed: 11, EarlyStopWindow: -1})
			}
			if err != nil {
				return nil, err
			}
			row := []string{setup.name, algo}
			for _, at := range []int{25, 50, 100, 200} {
				row = append(row, pct(mfuAt(out, at)))
			}
			row = append(row, pct(out.Best.MFU), dur2s(out.Best.IterTime))
			t.Rows = append(t.Rows, row)
			if algo == "grid" {
				t.claim("best_vs_grid/"+setup.name, sampled/out.Best.MFU)
			} else {
				sampled = max(sampled, out.Best.MFU)
			}
		}
	}
	t.Notes = append(t.Notes, "paper: algorithms converge near-optimal after 200-300 unique valid configs, 60-75% better than grid")
	return t, nil
}

// mfuAt reads the best MFU once n unique valid configs were sampled.
func mfuAt(out *search.Outcome, n int) float64 {
	best := 0.0
	for _, p := range out.Trajectory {
		if p.UniqueValid > n {
			break
		}
		best = p.BestMFU
	}
	return best
}

func table6(ctx context.Context, e *Env) (*Table, error) {
	t := &Table{
		ID:     "table6",
		Title:  "Search runtime by stage, 32xH100, with and without optimizations",
		Header: []string{"variant", "emulate", "collate", "estimate", "simulate", "trials", "total search"},
	}
	setup := setups()[2]
	budget := e.Scale.pick(192, 640)

	variants := []struct {
		name, claim string
		noDedup     bool
		sopt        search.Options
	}{
		{
			name:  "Maya (dedup+pruning+CMA)",
			claim: "optimized",
			sopt:  search.Options{Algorithm: "cma", Budget: budget, Parallel: 8, Seed: 7},
		},
		{
			name:    "No optimizations (full emulation, grid, no pruning)",
			claim:   "ablated",
			noDedup: true,
			sopt: search.Options{
				Algorithm: "grid", Budget: budget, Parallel: 8, Seed: 7,
				DisablePruning: true, EarlyStopWindow: -1, DominationSlack: -1,
			},
		},
	}
	for _, v := range variants {
		start := time.Now()
		out, stages, err := e.stagedSearch(ctx, setup.problem(), v.noDedup, v.sopt)
		if err != nil && out == nil {
			return nil, err
		}
		// A grid prefix that finds no valid config is still a timing
		// measurement; stage costs are what this table reports.
		total := time.Since(start)
		t.Rows = append(t.Rows, []string{
			v.name,
			stages.Emulate.Round(time.Millisecond).String(),
			stages.Collate.Round(time.Millisecond).String(),
			stages.Estimate.Round(time.Millisecond).String(),
			stages.Simulate.Round(time.Millisecond).String(),
			fmt.Sprint(out.Stats.Executed + out.Stats.Verdict + out.Stats.Dominated),
			total.Round(time.Millisecond).String(),
		})
		// Which shortcuts each variant took: the ablation skips and
		// abandons nothing. Both answer OOM trials off the capture.
		t.claim("verdicts/"+v.claim, float64(out.Stats.Verdict))
		t.claim("skips/"+v.claim, float64(out.Stats.Skipped))
		t.claim("dominated/"+v.claim, float64(out.Stats.Dominated))
	}
	t.Notes = append(t.Notes, "stage times summed across trials; paper reduces total search from >24h to 38min")
	return t, nil
}

func table10(ctx context.Context, e *Env) (*Table, error) {
	t := &Table{
		ID:     "table10",
		Title:  "Fidelity-preserving pruning tactics and their skip counts",
		Header: []string{"tactic", "skips (8xV100)", "skips (64xH100)"},
	}
	all := setups()
	counts := make([]map[string]int, 2)
	for i, setup := range []setupSpec{all[0], all[3]} {
		out, err := e.searchOutcome(ctx, setup)
		if err != nil {
			return nil, err
		}
		counts[i] = out.Stats.SkippedByTactic
		// Every skip is some tactic's.
		unattributed := out.Stats.Skipped
		for _, n := range counts[i] {
			unattributed -= n
		}
		t.claim("unattributed/"+setup.name, float64(unattributed))
	}
	for _, tac := range search.MegatronTactics() {
		t.Rows = append(t.Rows, []string{
			tac.Name, fmt.Sprint(counts[0][tac.Name]), fmt.Sprint(counts[1][tac.Name]),
		})
	}
	return t, nil
}
