package experiments

// The Env is the shared state of one run's experiments and this
// package's one route below the public maya API: every runner drives
// maya.Predictor, and the four needs that API cannot express are the
// Env methods below (DESIGN "Experiment index" names them).

import (
	"context"
	"fmt"
	"math"
	"sync"

	"maya"
	"maya/internal/core"
	"maya/internal/estimator"
	"maya/internal/hardware"
	"maya/internal/netsim"
	"maya/internal/search"
	"maya/internal/trace"
	"maya/internal/workload"
)

// Env caches expensive shared state (predictors, sweeps, searches)
// across experiments in one process.
type Env struct {
	Scale Scale

	// memos is unbounded: one entry per predictor, sweep or search a
	// run names.
	memos *core.Memo[string, any]
}

// NewEnv builds an environment at the given scale.
func NewEnv(scale Scale) *Env {
	return &Env{Scale: scale, memos: core.NewMemo[string, any](math.MaxInt)}
}

// memo runs fn once per key and caches its result. Failures are not
// results: a failed entry — a cancellation above all — is dropped so
// the next Run (with a live ctx) retries instead of replaying it
// forever. fn carries its caller's ctx; waiters just wait for it.
func (e *Env) memo(key string, fn func() (any, error)) (any, error) {
	v, _, err := e.memos.Get(context.TODO(), key, fn)
	return v, err
}

// predictor returns the Env's predictor for a cluster and profile
// kind, built WithoutDedup when noDedup is set. There is one per key
// for the life of the Env: a capture keys its oracle plan by the
// predictor's oracle, so every ground-truth replay of one capture
// shares one plan build. Predictors train through
// maya.DefaultEstimatorCache, which suiteFor reads as well.
func (e *Env) predictor(cluster hardware.Cluster, kind estimator.ProfileKind, noDedup bool) (*maya.Predictor, error) {
	v, err := e.memo(fmt.Sprintf("predictor/%s/%d/%t", cluster.Name, kind, noDedup), func() (any, error) {
		var opts []maya.PredictorOption
		if noDedup {
			opts = append(opts, maya.WithoutDedup())
		}
		return maya.NewPredictor(cluster, kind, opts...)
	})
	if err != nil {
		return nil, err
	}
	return v.(*maya.Predictor), nil
}

// suiteFor returns a cluster's trained suite and its held-out
// per-kernel MAPE from the process-wide cache that
// maya.DefaultEstimatorCache wraps, so each suite trains once per
// process whichever route asks first.
func suiteFor(ctx context.Context, cluster hardware.Cluster, kind estimator.ProfileKind) (*estimator.Suite, map[string]float64, error) {
	return core.DefaultSuiteCache().SuiteFor(ctx, cluster, core.DefaultOracle(cluster), kind)
}

// predict is Capture then Simulate, the report carrying the capture's
// cost as maya.Predictor.Predict's does.
func predict(ctx context.Context, pipe *core.Pipeline, w workload.Workload, flops float64) (*maya.Report, error) {
	c, err := pipe.Capture(ctx, w)
	if err != nil {
		return nil, err
	}
	defer c.Release()
	rep, err := pipe.Simulate(ctx, c, flops, hardware.BF16)
	if err != nil {
		return nil, err
	}
	rep.Stages.Emulate, rep.Stages.Collate = c.EmulateTime, c.CollateTime
	return rep, nil
}

// predictOnReference predicts w on cluster with the LLM suite trained
// on ref and collectives from cluster's netsim model (Fig. 12/13):
// kernels do not depend on cluster size, and nothing can be profiled
// at these scales. A public predictor trains on its own cluster.
func (e *Env) predictOnReference(ctx context.Context, cluster, ref hardware.Cluster, w workload.Workload, flops float64) (*maya.Report, error) {
	suite, _, err := suiteFor(ctx, ref, estimator.ProfileLLM)
	if err != nil {
		return nil, err
	}
	return predict(ctx, &core.Pipeline{
		Cluster: cluster,
		Suite:   suite.WithCollectiveEstimator(netsim.New(cluster)),
		Opts:    core.Options{SelectiveLaunch: true},
	}, w, flops)
}

// predictProbed predicts w with its workers deduplicated by the
// paper's probe: one iteration on every rank, then dedup, the route a
// capture takes without selective launch (Fig. 14). Every public
// predictor launches selectively.
func (e *Env) predictProbed(ctx context.Context, cluster hardware.Cluster, w workload.Workload) (*maya.Report, error) {
	suite, _, err := suiteFor(ctx, cluster, estimator.ProfileLLM)
	if err != nil {
		return nil, err
	}
	return predict(ctx, &core.Pipeline{Cluster: cluster, Suite: suite}, w, 0)
}

// stagedSearch is FindRecipe's search of problem with every trial's
// stage timings summed (Table 6); noDedup emulates every rank, as
// WithoutDedup does. FindRecipe reports an outcome, not where its
// wall-clock went. A search that finds no valid recipe still returns
// its outcome and timings beside the error.
func (e *Env) stagedSearch(ctx context.Context, problem search.Problem, noDedup bool, sopt search.Options) (*search.Outcome, maya.StageTimings, error) {
	var sum maya.StageTimings
	suite, _, err := suiteFor(ctx, problem.Cluster, estimator.ProfileLLM)
	if err != nil {
		return nil, sum, err
	}
	pipe := &core.Pipeline{Cluster: problem.Cluster, Suite: suite, Opts: core.Options{SelectiveLaunch: true, NoDedup: noDedup}}
	var mu sync.Mutex
	account := func(s maya.StageTimings) {
		mu.Lock()
		sum.Emulate += s.Emulate
		sum.Collate += s.Collate
		sum.Estimate += s.Estimate
		sum.Simulate += s.Simulate
		mu.Unlock()
	}
	out, err := pipe.Search(ctx, problem, pipe.Capture, sopt, account)
	return out, sum, err
}

// heldOutMAPE returns the held-out per-kernel error of a cluster's
// trained suite (Tables 7-9).
func (e *Env) heldOutMAPE(ctx context.Context, cluster hardware.Cluster, kind estimator.ProfileKind) (map[string]float64, error) {
	_, mape, err := suiteFor(ctx, cluster, kind)
	return mape, err
}

// kernelLaunches captures w on cluster as a default predictor does
// and names every kernel launch in the trace (Tables 7-9's coverage
// probe); a maya.Trace does not expose its ops. oom reports a capture
// that ran out of device memory, which names nothing.
func (e *Env) kernelLaunches(ctx context.Context, cluster hardware.Cluster, w workload.Workload) (names []string, oom bool, err error) {
	pipe := &core.Pipeline{Cluster: cluster, Opts: core.Options{SelectiveLaunch: true}}
	c, err := pipe.Capture(ctx, w)
	if err != nil || c.OOM {
		return nil, err == nil, err
	}
	defer c.Release()
	for _, wk := range c.Job.Workers {
		for i := range wk.Ops {
			if op := &wk.Ops[i]; op.Kind == trace.KindKernel {
				names = append(names, op.Name)
			}
		}
	}
	return names, false, nil
}
