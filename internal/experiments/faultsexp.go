package experiments

// Fig. 18: operational-fault sweep. A seeded MTBF failure process is
// walked over the simulated iteration schedule for a grid of
// checkpoint intervals: goodput falls as failures grow more frequent,
// and tighter checkpointing trades write overhead against lost work.
// Deterministic: the seeded plan makes every cell bit-identical
// across reruns; TestClaims bounds the per-iteration-checkpoint
// goodput at the most and least frequent failures.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"maya"
	"maya/internal/estimator"
	"maya/internal/faults"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
)

func init() {
	register("fig18", fig18)
}

func fig18(ctx context.Context, e *Env) (*Table, error) {
	cluster := hardware.DGXV100(1)
	// Fault scenarios address world ranks, so the capture keeps every
	// worker (no dedup). One capture serves the whole grid.
	pred, err := e.predictor(cluster, estimator.ProfileLLM, true)
	if err != nil {
		return nil, err
	}
	w, err := framework.NewMegatron(framework.MegatronConfig{
		Model: models.GPT3_1_3B(), NGPUs: cluster.TotalGPUs(), GlobalBatch: 16,
		TP: 2, PP: 2, MicroBatches: 2,
	})
	if err != nil {
		return nil, err
	}
	tr, err := pred.Capture(ctx, w)
	if err != nil {
		return nil, err
	}
	base, err := pred.Simulate(ctx, tr)
	if err != nil {
		return nil, err
	}

	iterations := e.Scale.pick(80, 400)
	mtbfs := []int{3, 10, 30} // iterations between failures, in expectation
	intervals := []int{1, 4, 16}
	if e.Scale == Full {
		mtbfs = []int{3, 10, 30, 100}
		intervals = []int{1, 2, 4, 8, 16}
	}

	t := &Table{
		ID:     "fig18",
		Title:  "Goodput under a seeded MTBF failure process vs checkpoint interval (8xV100, GPT-3 1.3B)",
		Header: []string{"MTBF (iters)", "ckpt every", "failures", "lost work", "ckpt cost", "goodput"},
	}
	for _, m := range mtbfs {
		for _, k := range intervals {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			plan := &faults.Plan{
				Seed:            1802, // one seed for the whole figure: cells differ only by the grid axes
				CheckpointEvery: k,
				CheckpointCost:  base.IterTime / 20,
				MTBF:            time.Duration(m) * base.IterTime,
				Detect:          base.IterTime / 2,
				Restore:         base.IterTime / 4,
				Iterations:      iterations,
			}
			rep, err := pred.Simulate(ctx, tr, maya.WithFaults(plan))
			if errors.Is(err, faults.ErrDiverged) {
				// Failures outrun recovery at this interval: the run
				// never finishes. Goodput is effectively zero — a
				// legitimate corner of the figure, not a malfunction.
				t.Rows = append(t.Rows, []string{
					fmt.Sprint(m), fmt.Sprint(k), "-", "-", "-", "diverged",
				})
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("fig18 mtbf=%d ckpt=%d: %w", m, k, err)
			}
			rec := rep.Recovery
			if rec == nil {
				return nil, fmt.Errorf("fig18 mtbf=%d ckpt=%d: no recovery report", m, k)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(m), fmt.Sprint(k), fmt.Sprint(len(rec.Failures)),
				dur2s(rec.LostWork), dur2s(rec.CheckpointOverhead),
				fmt.Sprintf("%.3f", rec.Goodput),
			})
			t.claim(fmt.Sprintf("goodput/%d/%d", m, k), rec.Goodput)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d-iteration walk; detection %s, restore %s per failure", iterations, base.IterTime/2, base.IterTime/4),
		"frequent failures reward short checkpoint intervals; rare failures make the write overhead dominate",
	)
	return t, nil
}
