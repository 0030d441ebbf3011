package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"maya"
	"maya/internal/prand"
)

// searchWarm isolates what Maya-Search adds per trial: optimizer,
// history, pruning tactics, verdict fast path, domination abort,
// scratch reuse and capture-cache hits. Every capture the searches
// need is taken during set-up (its cold pass), so the timed pass
// bypasses everything predict-cold stresses.
//
// One op is one FindRecipe (CMA-ES, fixed budget, early stop off). A
// search's cost depends tenfold on the trajectory its seed takes, so
// the search seeds come from a fixed pool and the workload seed draws
// their order; a pool drawn from the workload seed would make runs
// with different seeds incomparable.
type searchWarm struct {
	cfg     config
	problem maya.SearchProblem
	opts    maya.SearchOptions
	pool    []uint64 // search seeds
	order   []int    // op → pool index

	pred *maya.Predictor
	done int // ops run on this instance; the first numOps are the cold pass
	// cacheBase is the capture cache's accounting when the set-up ended.
	cacheBase maya.CaptureCacheStats

	// Trial accounting: cold is the set-up's first pass on the last
	// built instance, warm everything after the set-up.
	cold, warm searchTally
}

type searchTally struct {
	time                                         time.Duration
	trials                                       int
	executed, verdict, dominated, cached, pruned int
}

func (t *searchTally) add(o *maya.SearchOutcome, d time.Duration) {
	t.time += d
	t.trials += len(o.History)
	t.executed += o.Stats.Executed
	t.verdict += o.Stats.Verdict
	t.dominated += o.Stats.Dominated
	t.cached += o.Stats.Cached
	t.pruned += o.Stats.Skipped
}

func newSearchWarm(cfg config) (*searchWarm, error) {
	w := &searchWarm{
		cfg: cfg,
		// GPT-3 18.4B on 32 H100s at global batch 32, not the ISSUE's 64
		// H100s at batch 128: that problem has the same mix of tactics
		// per trial but captures four times the size and 2.6 GB
		// resident, and its timings follow the host's memory weather
		// twice as far (README, "Host effects").
		problem: maya.SearchProblem{Model: maya.GPT3_18_4B(), Cluster: maya.DGXH100(4), GlobalBatch: 32},
		opts: maya.SearchOptions{
			Algorithm: "cma", Budget: 64, EarlyStopWindow: -1, Parallel: runtime.GOMAXPROCS(0),
		},
		pool: []uint64{1, 2, 3, 4, 5},
	}
	if cfg.tiny {
		w.opts.Budget, w.pool = 24, w.pool[:2]
	}
	w.order = prand.New(prand.HashInts(cfg.seed, 0x5ea4c4)).Perm(len(w.pool))
	return w, nil
}

func (w *searchWarm) build(ctx context.Context) (time.Duration, error) {
	pred, err := maya.NewPredictor(w.problem.Cluster, maya.ProfileLLM,
		maya.WithCaptureCache(maya.NewCaptureCache(2048)), maya.WithEstimatorCache(maya.NewEstimatorCache()))
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := pred.Warm(ctx); err != nil {
		return 0, err
	}
	w.pred, w.done = pred, 0
	w.cold, w.warm = searchTally{}, searchTally{}
	return time.Since(t0), nil
}

func (w *searchWarm) close() {}

func (w *searchWarm) beginTimed() { w.cacheBase = w.pred.CaptureCache().Stats() }

// warmCycles: the first pass runs every search cold and pays its
// captures and estimate plans; the second settles pools and heap.
func (w *searchWarm) warmCycles() int { return 2 }
func (w *searchWarm) numOps() int     { return len(w.order) }
func (w *searchWarm) callers() int    { return 1 }

func (w *searchWarm) find(ctx context.Context, i, parallel int) (*maya.SearchOutcome, error) {
	o := w.opts
	o.Seed, o.Parallel = w.pool[w.order[i]], parallel
	out, err := w.pred.FindRecipe(ctx, w.problem, o)
	if err != nil {
		return nil, fmt.Errorf("search seed %d: %w", o.Seed, err)
	}
	if out.Best == nil {
		return nil, fmt.Errorf("search seed %d found no feasible recipe", o.Seed)
	}
	return out, nil
}

func (w *searchWarm) do(ctx context.Context, i int, tr *tracer, parent, opID int) (opOutcome, error) {
	id := tr.start("find_recipe", parent, opID)
	t0 := time.Now()
	out, err := w.find(ctx, i, w.opts.Parallel)
	d := time.Since(t0)
	tr.end(id)
	if err != nil {
		return opOutcome{}, err
	}
	switch {
	case w.done < w.numOps():
		w.cold.add(out, d)
	case w.done >= w.warmCycles()*w.numOps():
		w.warm.add(out, d)
	}
	w.done++
	return opOutcome{hash: hashOutcome(out), class: "find_recipe"}, nil
}

func (w *searchWarm) check(ctx context.Context) ([]uint64, float64, error) {
	refs := make([]uint64, len(w.order))
	var errSum float64
	for i := range w.order {
		out, err := w.find(ctx, i, w.opts.Parallel)
		if err != nil {
			return nil, 0, err
		}
		refs[i] = hashOutcome(out)
		// Parallel is an execution resource only.
		serial, err := w.find(ctx, i, 1)
		if err != nil {
			return nil, 0, err
		}
		if h := hashOutcome(serial); h != refs[i] {
			return nil, 0, fmt.Errorf("search seed %d: outcome %016x at Parallel 1, %016x at Parallel %d",
				w.pool[w.order[i]], h, refs[i], w.opts.Parallel)
		}
		// The search's answer against the silicon: deploy its best recipe.
		wl, err := maya.NewMegatron(out.Best.Config)
		if err != nil {
			return nil, 0, err
		}
		actual, err := w.pred.MeasureActual(ctx, wl)
		if err != nil {
			return nil, 0, err
		}
		if actual.OOM {
			return nil, 0, fmt.Errorf("search seed %d: the best recipe does not fit the silicon", w.pool[w.order[i]])
		}
		errSum += errPct(out.Best.IterTime, actual.IterTime)
	}
	predErr := errSum / float64(len(w.order))
	if predErr > predErrCeilingPct {
		return nil, 0, fmt.Errorf("mean prediction error of the best recipes %.2f%% is above the %d%% ceiling", predErr, predErrCeilingPct)
	}
	return refs, predErr, nil
}

func (w *searchWarm) layers(ctx context.Context, m metrics, tr *tracer) error {
	if w.warm.trials == 0 || w.cold.trials == 0 {
		return fmt.Errorf("no search trials were tallied")
	}
	n := float64(w.warm.trials)
	m.set("search.trials_per_s", n/w.warm.time.Seconds())
	m.set("search.cold_trials_per_s", float64(w.cold.trials)/w.cold.time.Seconds())
	m.set("search.executed_frac", float64(w.warm.executed)/n)
	m.set("search.verdict_frac", float64(w.warm.verdict)/n)
	m.set("search.dominated_frac", float64(w.warm.dominated)/n)
	m.set("search.cached_frac", float64(w.warm.cached)/n)
	m.set("search.pruned_frac", float64(w.warm.pruned)/n)
	s := w.pred.CaptureCache().Stats()
	hits, misses := s.Hits-w.cacheBase.Hits, s.Misses-w.cacheBase.Misses
	m.set("core.capture_cache_hit_ratio", float64(hits)/float64(hits+misses))
	return nil
}
