package maya

import (
	"context"
	"fmt"

	"maya/internal/core"
	"maya/internal/search"
)

// Search types re-exported from Maya-Search.
type (
	// SearchProblem fixes model, cluster and global batch.
	SearchProblem = search.Problem
	// SearchOptions tunes algorithm, budget, parallelism, pruning.
	SearchOptions = search.Options
	// SearchOutcome is a completed search with stats and trajectory.
	SearchOutcome = search.Outcome
	// Knobs is one point in the recipe space.
	Knobs = search.Knobs
)

// FindRecipe searches for the lowest-iteration-time training recipe
// for a model on the predictor's cluster, evaluating candidates
// through the predictor's own emulation pipeline (no GPUs involved)
// — so the search reuses the already-trained estimator suite instead
// of re-resolving one per call. This is the ~15-line integration the
// paper describes, packaged as one call.
//
// problem.Cluster may be left zero to mean the predictor's cluster; a
// conflicting cluster is an error. Cancelling ctx stops the search
// mid-trial-loop: no further trials are issued, and the partial
// outcome is returned alongside ctx.Err().
//
// Trial evaluation is worker-affine: each of the opts.Parallel search
// workers owns a pooled simulation engine for the whole search
// (core.Pipeline.Search), so trials re-acquire nothing per evaluation.
// Every capture carries its estimate plan (the first simulate of a
// trial's capture resolves each unique kernel shape once; re-visited
// topologies read the plan in place). With WithCaptureCache, trials whose topology was already
// captured — in this search, a previous search, or a PredictBatch
// sweep — skip emulation and collation entirely.
//
// Two trial classes never pay a full simulation: configurations whose
// capture carries an OOM verdict return it directly (accounted as
// Stats.Verdict), and trials whose simulated clock provably exceeds
// the generation's domination bound are abandoned mid-simulation
// (Stats.Dominated; see Options.DominationSlack). Both are
// deterministic: outcomes are bit-identical for any Parallel value.
func (p *Predictor) FindRecipe(ctx context.Context, problem SearchProblem, opts SearchOptions) (*SearchOutcome, error) {
	if problem.Cluster.Name == "" {
		problem.Cluster = p.cluster
	} else if problem.Cluster.Name != p.cluster.Name {
		return nil, fmt.Errorf("maya: FindRecipe problem targets %s but the predictor models %s",
			problem.Cluster.Name, p.cluster.Name)
	}
	s := p.settings(nil)
	pipe, err := p.pipelineFor(ctx, s)
	if err != nil {
		return nil, err
	}
	captureOpts := p.captureOptions(s)
	capture := func(ctx context.Context, w Workload) (*core.Capture, error) {
		c, _, err := p.captureFor(ctx, captureOpts, w, false)
		return c, err
	}
	return pipe.Search(ctx, problem, capture, opts, nil)
}
