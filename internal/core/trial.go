package core

import (
	"context"
	"time"

	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/search"
	"maya/internal/sim"
	"maya/internal/workload"
)

// Search runs a recipe search of problem with every trial priced by
// this pipeline: the route maya.Predictor.FindRecipe and the Table 6
// runner share. capture obtains a trial's capture (the pipeline's own
// Capture, or a caching front that keeps what it stores); the trial
// releases it once its replay is done. Each search worker owns one
// engine from sim.AcquireEngine for the whole search, so trials
// re-acquire nothing, and the engines go back to the pool when the
// search returns. account, when non-nil, receives each trial's stage
// timings; trials run concurrently, so it must be safe for that.
func (p *Pipeline) Search(ctx context.Context, problem search.Problem, capture func(context.Context, workload.Workload) (*Capture, error), opts search.Options, account func(StageTimings)) (*search.Outcome, error) {
	if account == nil {
		account = func(StageTimings) {}
	}
	flops := problem.Model.TrainFLOPsPerIter(problem.GlobalBatch)
	var engines []*sim.Engine
	defer func() {
		for _, e := range engines {
			e.Release()
		}
	}()
	// RunWorkers calls the factory for one worker at a time.
	return search.RunWorkers(ctx, problem, func(int) search.Evaluator {
		e := sim.AcquireEngine()
		engines = append(engines, e)
		return p.trialEvaluator(capture, flops, e, account)
	}, opts)
}

// trialEvaluator is the pipeline as one search worker sees it: build
// the trial's Megatron workload, obtain its capture, answer straight
// from the capture's OOM verdict without estimating or simulating,
// and otherwise run the engine route on the worker's engine no further
// than the generation's domination bound; then release the capture,
// which recycles its recordings, or does nothing on a kept one. A
// trial reads the iteration time off the run's timing core and builds
// no report: the search reads no busy union and no fault walk.
func (p *Pipeline) trialEvaluator(capture func(context.Context, workload.Workload) (*Capture, error), flops float64, e *sim.Engine, account func(StageTimings)) search.Evaluator {
	return func(ctx context.Context, cfg framework.MegatronConfig, bound time.Duration) (search.EvalResult, error) {
		w, err := framework.NewMegatron(cfg)
		if err != nil {
			return search.EvalResult{}, err
		}
		c, err := capture(ctx, w)
		if err != nil {
			return search.EvalResult{}, err
		}
		defer c.Release()
		stages := StageTimings{Emulate: c.EmulateTime, Collate: c.CollateTime}
		if c.OOM {
			// The emulator's memory accounting already decided this
			// trial.
			account(stages)
			return search.EvalResult{OOM: true, PeakMem: c.PeakMemBytes}, nil
		}
		timer, err := p.timer()
		if err != nil {
			return search.EvalResult{}, err
		}
		r, err := p.run(ctx, c, timer, false, e, bound)
		if err != nil {
			return search.EvalResult{}, err
		}
		stages.Estimate, stages.Simulate = r.estimate, r.simulate
		account(stages)
		if r.sr.Truncated {
			return search.EvalResult{Truncated: true, PeakMem: c.PeakMemBytes}, nil
		}
		iter := r.sr.IterTime()
		return search.EvalResult{IterTime: iter, MFU: p.mfu(iter, c.TotalWorkers, flops, hardware.BF16), PeakMem: c.PeakMemBytes}, nil
	}
}
