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

	"maya/internal/core"
	"maya/internal/estimator"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/netsim"
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

func hyperscalePipeline(ctx context.Context, e *Env, nodes int) (*core.Pipeline, error) {
	cluster := hardware.DGXH100(nodes)
	// The estimator suite is trained once on a reference H100 cluster;
	// kernels do not depend on cluster size, collectives come from
	// netsim on the actual cluster.
	ref := hardware.DGXH100(8)
	suite, _, err := e.Suites.SuiteFor(ctx, ref, e.Oracle(ref), estimator.ProfileLLM)
	if err != nil {
		return nil, err
	}
	suite = suite.WithCollectiveEstimator(netsim.New(cluster))
	return &core.Pipeline{
		Cluster: cluster,
		Suite:   suite,
		Opts:    core.Options{SelectiveLaunch: true},
	}, nil
}

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
	for _, dp := range dps {
		ngpus := 8 * 8 * dp
		pipe, err := hyperscalePipeline(ctx, e, ngpus/8)
		if err != nil {
			return nil, err
		}
		cfg := framework.MegatronConfig{
			Model: mdl, NGPUs: ngpus, GlobalBatch: globalBatch,
			TP: 8, PP: 8, MicroBatches: microbatches,
			DistOptimizer: true, ActRecompute: true,
		}
		w, err := framework.NewMegatron(cfg)
		if err != nil {
			return nil, err
		}
		rep, err := pipe.Predict(ctx, w, mdl.TrainFLOPsPerIter(globalBatch), hardware.BF16)
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
		pipe, err := hyperscalePipeline(ctx, e, ngpus/8)
		if err != nil {
			return nil, err
		}
		dp := ngpus / 64
		cfg := framework.MegatronConfig{
			Model: mdl, NGPUs: ngpus, GlobalBatch: 12 * dp, // batch scales with cluster
			TP: 8, PP: 8, MicroBatches: 12, DistOptimizer: true,
		}
		w, err := framework.NewMegatron(cfg)
		if err != nil {
			return nil, err
		}
		rep, err := pipe.Predict(ctx, w, mdl.TrainFLOPsPerIter(cfg.GlobalBatch), hardware.BF16)
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
	}
	t.Notes = append(t.Notes, "paper: 16K GPUs in ~25 minutes with 8 unique workers; runtime grows with trace size, not GPU count")
	return t, nil
}
