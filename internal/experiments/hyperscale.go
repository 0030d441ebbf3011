package experiments

// Hyperscale experiments (§7.4): Fig. 12 (predicted MFU and iteration
// time when scaling data parallelism to 12K GPUs) and Fig. 13 (Maya
// stack runtime when scaling to 16K GPUs). Collectives at these
// scales cannot be profiled, so the netsim (ASTRA-sim-style) model
// plugs into the estimator, and selective launch emulates only one
// rank per pipeline stage.

import (
	"context"
	"fmt"
	"time"

	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
)

func init() {
	register("fig12", fig12)
	register("fig13", fig13)
}

// hyperscaleModel is GPT-3 145.6B, with depth reduced in quick mode
// (wall-clock only; the scaling trend is unaffected — the same
// per-layer work just repeats fewer times).
func hyperscaleModel(e *Env) models.Transformer {
	mdl := models.GPT3_145_6B()
	if e.Scale == Quick {
		mdl.Layers = 32
	}
	return mdl
}

// hyperscaleRef is the H100 cluster whose trained suite prices
// kernels at every scale: kernels do not depend on cluster size.
var hyperscaleRef = hardware.DGXH100(8)

func fig12(ctx context.Context, e *Env) (*Table, error) {
	t := &Table{
		ID:     "fig12",
		Title:  "Predicted MFU and iteration time scaling data parallelism (TP8/PP8 fixed)",
		Header: []string{"gpus", "dp", "iter time", "MFU", "comm busy", "exposed comm"},
	}
	mdl := hyperscaleModel(e)
	dps := []int{16, 32, 48, 64, 96, 192}
	if e.Scale == Quick {
		dps = []int{16, 32, 64, 192}
	}
	const globalBatch = 12288
	const microbatches = 64
	var mfus []float64
	for _, dp := range dps {
		ngpus := 8 * 8 * dp
		cfg := framework.MegatronConfig{
			Model: mdl, NGPUs: ngpus, GlobalBatch: globalBatch,
			TP: 8, PP: 8, MicroBatches: microbatches,
			DistOptimizer: true, ActRecompute: true,
		}
		w, err := framework.NewMegatron(cfg)
		if err != nil {
			return nil, err
		}
		rep, err := e.predictOnReference(ctx, hardware.DGXH100(ngpus/8), hyperscaleRef, w, mdl.TrainFLOPsPerIter(globalBatch))
		if err != nil {
			return nil, err
		}
		if rep.OOM {
			t.Rows = append(t.Rows, []string{fmt.Sprint(ngpus), fmt.Sprint(dp), "OOM", "-", "-", "-"})
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(ngpus), fmt.Sprint(dp),
			dur2s(rep.IterTime), pct(rep.MFU),
			dur2s(rep.CommTime), dur2s(rep.ExposedComm),
		})
		mfus = append(mfus, rep.MFU)
	}
	if len(mfus) > 0 {
		// Scaling efficiency: MFU at the widest data parallelism over
		// MFU at the narrowest — below 1 is sublinear scaling.
		t.claim("scaling_efficiency", mfus[len(mfus)-1]/mfus[0])
	}
	t.Notes = append(t.Notes,
		"expected sublinear scaling: iteration time drops with DP while communication overhead erodes MFU",
		"collectives modeled by the netsim (ASTRA-sim-style) plug-in; profiling at these scales is impossible")
	return t, nil
}

func fig13(ctx context.Context, e *Env) (*Table, error) {
	t := &Table{
		ID:     "fig13",
		Title:  "Maya stack runtime when scaling cluster size (selective launch)",
		Header: []string{"gpus", "unique workers", "emulate", "collate", "estimate", "simulate", "total"},
	}
	mdl := hyperscaleModel(e)
	scales := []int{1024, 2048, 4096, 8192, 16384}
	if e.Scale == Quick {
		scales = []int{1024, 4096, 16384}
	}
	for _, ngpus := range scales {
		dp := ngpus / 64
		cfg := framework.MegatronConfig{
			Model: mdl, NGPUs: ngpus, GlobalBatch: 12 * dp, // batch scales with cluster
			TP: 8, PP: 8, MicroBatches: 12, DistOptimizer: true,
		}
		w, err := framework.NewMegatron(cfg)
		if err != nil {
			return nil, err
		}
		rep, err := e.predictOnReference(ctx, hardware.DGXH100(ngpus/8), hyperscaleRef, w, mdl.TrainFLOPsPerIter(cfg.GlobalBatch))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(ngpus), fmt.Sprint(rep.UniqueWorkers),
			rep.Stages.Emulate.Round(time.Millisecond).String(),
			rep.Stages.Collate.Round(time.Millisecond).String(),
			rep.Stages.Estimate.Round(time.Millisecond).String(),
			rep.Stages.Simulate.Round(time.Millisecond).String(),
			rep.Stages.Total().Round(time.Millisecond).String(),
		})
		t.claim(fmt.Sprintf("unique_workers/%d", ngpus), float64(rep.UniqueWorkers))
	}
	t.Notes = append(t.Notes, "paper: 16K GPUs in ~25 minutes with 8 unique workers; runtime grows with trace size, not GPU count")
	return t, nil
}
