package core

import (
	"context"
	"time"

	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/search"
	"maya/internal/workload"
)

// TrialEvaluator is the pipeline as a recipe search sees it: build the
// trial's Megatron workload, obtain its capture from capture (the
// pipeline's own Capture, or a caching front for it), answer straight
// from the capture's OOM verdict without estimating or simulating
// (simulateOOM restores the simulate-everything path, the Fig. 15
// ablation), and otherwise replay on scratch — nil borrows pooled
// scratch per trial — no further than the generation's domination
// bound. account, when non-nil, receives each trial's stage timings;
// trials run concurrently, so it must be safe for that.
func (p *Pipeline) TrialEvaluator(capture func(context.Context, workload.Workload) (*Capture, error), flops float64, scratch *SimScratch, simulateOOM bool, account func(StageTimings)) search.Evaluator {
	if account == nil {
		account = func(StageTimings) {}
	}
	return func(ctx context.Context, cfg framework.MegatronConfig, bound time.Duration) (search.EvalResult, error) {
		w, err := framework.NewMegatron(cfg)
		if err != nil {
			return search.EvalResult{}, err
		}
		c, err := capture(ctx, w)
		if err != nil {
			return search.EvalResult{}, err
		}
		stages := StageTimings{Emulate: c.EmulateTime, Collate: c.CollateTime}
		if c.OOM && !simulateOOM {
			// Verdict fast path: the emulator's memory accounting
			// already decided this trial.
			account(stages)
			return search.EvalResult{OOM: true, PeakMem: c.PeakMemBytes, Verdict: true}, nil
		}
		rep, err := p.SimulateScratch(ctx, c, flops, hardware.BF16, scratch, bound)
		if err != nil {
			return search.EvalResult{}, err
		}
		stages.Estimate, stages.Simulate = rep.Stages.Estimate, rep.Stages.Simulate
		account(stages)
		if rep.Truncated {
			return search.EvalResult{Truncated: true, PeakMem: rep.PeakMemBytes}, nil
		}
		return search.EvalResult{
			OOM: rep.OOM, IterTime: rep.IterTime, MFU: rep.MFU, PeakMem: rep.PeakMemBytes,
		}, nil
	}
}
