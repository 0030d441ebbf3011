package experiments

// Fig. 14: worker-deduplication ablation. Fixed parallelism, growing
// data-parallel degree: every added worker is redundant, so dedup
// should hold pipeline runtime flat while the no-dedup baseline
// scales with GPU count.

import (
	"context"
	"fmt"
	"time"

	"maya/internal/estimator"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
)

func init() {
	register("fig14", fig14)
}

func fig14(ctx context.Context, e *Env) (*Table, error) {
	t := &Table{
		ID:     "fig14",
		Title:  "Impact of worker deduplication on Maya's runtime",
		Header: []string{"setup", "workers", "no-dedup time", "dedup time", "dedup workers", "reduction"},
	}
	type scale struct {
		name    string
		cluster hardware.Cluster
		model   models.Transformer
		batch   int
	}
	scales := []scale{
		{"8xV100", hardware.DGXV100(1), models.GPT3_1_3B(), 64},
		{"16xV100", hardware.DGXV100(2), models.GPT3_1_3B(), 128},
		{"32xV100", hardware.DGXV100(4), models.GPT3_1_3B(), 256},
		{"32xH100", hardware.DGXH100(4), models.GPT3_18_4B(), 256},
		{"64xH100", hardware.DGXH100(8), models.GPT3_18_4B(), 512},
	}
	if e.Scale == Quick {
		scales = append(scales[:2], scales[3:]...)
	}
	for _, sc := range scales {
		noDedup, err := e.predictor(sc.cluster, estimator.ProfileLLM, true)
		if err != nil {
			return nil, err
		}
		// Fixed TP/PP; all growth goes to the data-parallel degree —
		// pure redundancy from the emulator's perspective. Recompute
		// and the distributed optimizer keep every scale within HBM.
		// Multiple iterations make the dynamic-dedup trade-off real:
		// the probe costs one iteration on every rank, full emulation
		// of the remaining iterations runs on unique ranks only.
		cfg := framework.MegatronConfig{
			Model: sc.model, NGPUs: sc.cluster.TotalGPUs(), GlobalBatch: sc.batch,
			TP: 2, PP: 2, MicroBatches: 4, ActRecompute: true, DistOptimizer: true,
			Iterations: 3,
		}
		w, err := framework.NewMegatron(cfg)
		if err != nil {
			return nil, err
		}

		// The ablation is about what deduplication saves in the
		// capture (emulate + collate) and downstream stages: each
		// report carries all four.
		rf, err := noDedup.Predict(ctx, w)
		if err != nil {
			return nil, err
		}
		rd, err := e.predictProbed(ctx, sc.cluster, w)
		if err != nil {
			return nil, err
		}
		if rf.OOM || rd.OOM {
			return nil, fmt.Errorf("fig14 %s: unexpected OOM", sc.name)
		}
		tFull, tDedup := rf.Stages.Total(), rd.Stages.Total()
		reduction := 1 - tDedup.Seconds()/tFull.Seconds()
		t.Rows = append(t.Rows, []string{
			sc.name, fmt.Sprint(rf.UniqueWorkers),
			tFull.Round(time.Millisecond).String(),
			tDedup.Round(time.Millisecond).String(),
			fmt.Sprint(rd.UniqueWorkers),
			pct(reduction),
		})
		t.claim("iter_shift/"+sc.name, relErr(rd.IterTime, rf.IterTime))
	}
	t.Notes = append(t.Notes, "paper: 74-94% runtime reduction, growing with cluster size")
	return t, nil
}
